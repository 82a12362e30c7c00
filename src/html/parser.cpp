#include "html/parser.hpp"

#include <cctype>
#include <vector>

#include "html/entities.hpp"
#include "util/strings.hpp"

namespace sww::html {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

constexpr int kMaxDepth = 512;

bool IsRawTextElement(std::string_view tag) {
  return tag == "script" || tag == "style";
}

struct Token {
  enum class Type { kText, kOpenTag, kCloseTag, kComment, kDoctype, kEof };
  Type type = Type::kEof;
  std::string data;                   // text / tag name / comment body
  std::vector<Attribute> attributes;  // open tags
  bool self_closing = false;
};

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view html) : html_(html) {}

  Token Next() {
    if (pos_ >= html_.size()) return Token{};

    // Raw text mode: everything until the matching close tag is text.
    if (!raw_text_tag_.empty()) {
      return NextRawText();
    }

    if (html_[pos_] != '<') {
      return NextText();
    }

    if (html_.substr(pos_, 4) == "<!--") {
      return NextComment();
    }
    if (pos_ + 1 < html_.size() &&
        (html_[pos_ + 1] == '!' || html_[pos_ + 1] == '?')) {
      return NextDeclaration();
    }
    if (pos_ + 1 < html_.size() && html_[pos_ + 1] == '/') {
      return NextCloseTag();
    }
    if (pos_ + 1 < html_.size() &&
        std::isalpha(static_cast<unsigned char>(html_[pos_ + 1]))) {
      return NextOpenTag();
    }
    // A lone '<' that does not start a tag is literal text.
    return NextText();
  }

  void EnterRawText(std::string tag) { raw_text_tag_ = std::move(tag); }

 private:
  Token NextText() {
    std::size_t end = html_.find('<', pos_ + 1);
    if (end == std::string_view::npos) end = html_.size();
    Token token;
    token.type = Token::Type::kText;
    token.data = DecodeEntities(html_.substr(pos_, end - pos_));
    pos_ = end;
    return token;
  }

  Token NextRawText() {
    const std::string close = "</" + raw_text_tag_;
    std::size_t end = pos_;
    while (true) {
      end = html_.find('<', end);
      if (end == std::string_view::npos) {
        end = html_.size();
        break;
      }
      const std::string_view candidate = html_.substr(end, close.size());
      if (util::ToLower(candidate) == close) break;
      ++end;
    }
    Token token;
    token.type = Token::Type::kText;
    token.data = std::string(html_.substr(pos_, end - pos_));  // no entities
    pos_ = end;
    raw_text_tag_.clear();
    return token;
  }

  Token NextComment() {
    const std::size_t end = html_.find("-->", pos_ + 4);
    Token token;
    token.type = Token::Type::kComment;
    if (end == std::string_view::npos) {
      token.data = std::string(html_.substr(pos_ + 4));
      pos_ = html_.size();
    } else {
      token.data = std::string(html_.substr(pos_ + 4, end - pos_ - 4));
      pos_ = end + 3;
    }
    return token;
  }

  Token NextDeclaration() {
    const std::size_t end = html_.find('>', pos_);
    Token token;
    std::string_view body;
    if (end == std::string_view::npos) {
      body = html_.substr(pos_ + 2);
      pos_ = html_.size();
    } else {
      body = html_.substr(pos_ + 2, end - pos_ - 2);
      pos_ = end + 1;
    }
    const std::string lowered = util::ToLower(body.substr(0, 7));
    if (lowered == "doctype") {
      token.type = Token::Type::kDoctype;
      token.data = std::string(util::Trim(body.substr(7)));
    } else {
      token.type = Token::Type::kComment;  // treat other declarations as comments
      token.data = std::string(body);
    }
    return token;
  }

  Token NextCloseTag() {
    const std::size_t end = html_.find('>', pos_);
    Token token;
    token.type = Token::Type::kCloseTag;
    if (end == std::string_view::npos) {
      token.data = util::ToLower(util::Trim(html_.substr(pos_ + 2)));
      pos_ = html_.size();
    } else {
      token.data = util::ToLower(util::Trim(html_.substr(pos_ + 2, end - pos_ - 2)));
      pos_ = end + 1;
    }
    return token;
  }

  Token NextOpenTag() {
    ++pos_;  // '<'
    Token token;
    token.type = Token::Type::kOpenTag;
    // Tag name.
    std::size_t start = pos_;
    while (pos_ < html_.size() &&
           (std::isalnum(static_cast<unsigned char>(html_[pos_])) ||
            html_[pos_] == '-' || html_[pos_] == ':')) {
      ++pos_;
    }
    token.data = util::ToLower(html_.substr(start, pos_ - start));

    // Attributes.
    while (pos_ < html_.size()) {
      while (pos_ < html_.size() &&
             std::isspace(static_cast<unsigned char>(html_[pos_]))) {
        ++pos_;
      }
      if (pos_ >= html_.size()) break;
      if (html_[pos_] == '>') {
        ++pos_;
        break;
      }
      if (html_[pos_] == '/' && pos_ + 1 < html_.size() && html_[pos_ + 1] == '>') {
        token.self_closing = true;
        pos_ += 2;
        break;
      }
      // Attribute name.
      start = pos_;
      while (pos_ < html_.size() && html_[pos_] != '=' && html_[pos_] != '>' &&
             html_[pos_] != '/' &&
             !std::isspace(static_cast<unsigned char>(html_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start) {
        ++pos_;  // stray character; skip
        continue;
      }
      Attribute attr;
      attr.name = util::ToLower(html_.substr(start, pos_ - start));
      while (pos_ < html_.size() &&
             std::isspace(static_cast<unsigned char>(html_[pos_]))) {
        ++pos_;
      }
      if (pos_ < html_.size() && html_[pos_] == '=') {
        ++pos_;
        while (pos_ < html_.size() &&
               std::isspace(static_cast<unsigned char>(html_[pos_]))) {
          ++pos_;
        }
        if (pos_ < html_.size() && (html_[pos_] == '"' || html_[pos_] == '\'')) {
          const char quote = html_[pos_++];
          start = pos_;
          while (pos_ < html_.size() && html_[pos_] != quote) ++pos_;
          attr.value = DecodeEntities(html_.substr(start, pos_ - start));
          if (pos_ < html_.size()) ++pos_;  // closing quote
        } else {
          start = pos_;
          while (pos_ < html_.size() && html_[pos_] != '>' &&
                 !std::isspace(static_cast<unsigned char>(html_[pos_]))) {
            ++pos_;
          }
          attr.value = DecodeEntities(html_.substr(start, pos_ - start));
        }
      }
      token.attributes.push_back(std::move(attr));
    }
    return token;
  }

  std::string_view html_;
  std::size_t pos_ = 0;
  std::string raw_text_tag_;
};

}  // namespace

/// Stack-based tree builder with browser-style recovery.
class TreeBuilder {
 public:
  Result<std::unique_ptr<Node>> Build(std::string_view html) {
    auto document = Node::MakeDocument();
    std::vector<Node*> stack{document.get()};
    Tokenizer tokenizer(html);

    while (true) {
      Token token = tokenizer.Next();
      if (token.type == Token::Type::kEof) break;
      Node* top = stack.back();
      switch (token.type) {
        case Token::Type::kText:
          if (!token.data.empty()) {
            top->AppendChild(Node::MakeText(std::move(token.data)));
          }
          break;
        case Token::Type::kComment:
          top->AppendChild(Node::MakeComment(std::move(token.data)));
          break;
        case Token::Type::kDoctype:
          top->AppendChild(Node::MakeDoctype(std::move(token.data)));
          break;
        case Token::Type::kOpenTag: {
          auto element = Node::MakeElement(token.data);
          for (Attribute& attr : token.attributes) {
            element->SetAttribute(attr.name, attr.value);
          }
          Node* appended = top->AppendChild(std::move(element));
          const bool is_void = IsVoidElement(appended->tag());
          if (!is_void && !token.self_closing) {
            if (static_cast<int>(stack.size()) >= kMaxDepth) {
              return Error(ErrorCode::kMalformed, "html nesting too deep");
            }
            stack.push_back(appended);
            if (IsRawTextElement(appended->tag())) {
              tokenizer.EnterRawText(appended->tag());
            }
          }
          break;
        }
        case Token::Type::kCloseTag: {
          // Pop to the matching open element; ignore if none (browser rule).
          for (std::size_t i = stack.size(); i-- > 1;) {
            if (stack[i]->tag() == token.data) {
              stack.resize(i);
              break;
            }
          }
          break;
        }
        case Token::Type::kEof:
          break;
      }
    }
    return document;
  }
};

Result<std::unique_ptr<Node>> ParseDocument(std::string_view html) {
  return TreeBuilder().Build(html);
}

}  // namespace sww::html
