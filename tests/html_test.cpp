// Tests for the HTML module: tokenizer/parser, DOM, entities, and the
// paper's `generated content` class (§4.1, Figure 1).
#include <gtest/gtest.h>

#include "html/entities.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"

namespace sww::html {
namespace {

std::unique_ptr<Node> MustParse(std::string_view html) {
  auto result = ParseDocument(html);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// --- entities --------------------------------------------------------------

TEST(Entities, NamedDecoding) {
  EXPECT_EQ(DecodeEntities("a &amp; b &lt;c&gt;"), "a & b <c>");
  EXPECT_EQ(DecodeEntities("&quot;x&quot; &apos;y&apos;"), "\"x\" 'y'");
}

TEST(Entities, NumericDecoding) {
  EXPECT_EQ(DecodeEntities("&#65;&#x42;&#x63;"), "ABc");
  EXPECT_EQ(DecodeEntities("&#x1F600;"), "\xf0\x9f\x98\x80");
}

TEST(Entities, MalformedLeftVerbatim) {
  EXPECT_EQ(DecodeEntities("5 & 6"), "5 & 6");
  EXPECT_EQ(DecodeEntities("&unknown;"), "&unknown;");
  EXPECT_EQ(DecodeEntities("&#xZZ;"), "&#xZZ;");
  EXPECT_EQ(DecodeEntities("&"), "&");
}

TEST(Entities, EscapeRoundTrip) {
  const std::string nasty = "a<b>&\"c\"";
  EXPECT_EQ(DecodeEntities(EscapeAttribute(nasty)), nasty);
  EXPECT_EQ(DecodeEntities(EscapeText("x<&>y")), "x<&>y");
}

// --- parser ------------------------------------------------------------------

TEST(Parser, BasicDocumentStructure) {
  auto doc = MustParse(
      "<!DOCTYPE html><html><head><title>T</title></head>"
      "<body><p>hello</p></body></html>");
  Node* title = doc->FindFirstByTag("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->InnerText(), "T");
  Node* p = doc->FindFirstByTag("p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->InnerText(), "hello");
}

TEST(Parser, AttributesQuotedUnquotedAndBare) {
  auto doc = MustParse(
      R"(<img src="a.ppm" width=320 alt='pic' data-sww="unique" hidden/>)");
  Node* img = doc->FindFirstByTag("img");
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->GetAttribute("src").value(), "a.ppm");
  EXPECT_EQ(img->GetAttribute("width").value(), "320");
  EXPECT_EQ(img->GetAttribute("alt").value(), "pic");
  EXPECT_EQ(img->GetAttribute("hidden").value(), "");
  EXPECT_FALSE(img->GetAttribute("nope").has_value());
}

TEST(Parser, AttributeNamesAreCaseInsensitive) {
  auto doc = MustParse(R"(<div Content-Type="img" CLASS="a b"></div>)");
  Node* div = doc->FindFirstByTag("div");
  EXPECT_EQ(div->GetAttribute("content-type").value(), "img");
  EXPECT_TRUE(div->HasClass("b"));
}

TEST(Parser, VoidElementsDontNest) {
  auto doc = MustParse("<p>a<br>b<img src=x>c</p>");
  Node* p = doc->FindFirstByTag("p");
  EXPECT_EQ(p->InnerText(), "abc");
  EXPECT_EQ(p->children().size(), 5u);  // text, br, text, img, text
}

TEST(Parser, CommentsAndDoctypePreserved) {
  auto doc = MustParse("<!DOCTYPE html><!-- note --><p>x</p>");
  bool saw_comment = false, saw_doctype = false;
  static_cast<const Node&>(*doc).Visit([&](const Node& node) {
    if (node.type() == NodeType::kComment) {
      saw_comment = true;
      EXPECT_EQ(node.text(), " note ");
    }
    if (node.type() == NodeType::kDoctype) saw_doctype = true;
  });
  EXPECT_TRUE(saw_comment);
  EXPECT_TRUE(saw_doctype);
}

TEST(Parser, ScriptContentIsRawText) {
  auto doc = MustParse("<script>if (a < b && c > d) { run(); }</script><p>y</p>");
  Node* script = doc->FindFirstByTag("script");
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->InnerText(), "if (a < b && c > d) { run(); }");
  EXPECT_NE(doc->FindFirstByTag("p"), nullptr);
}

TEST(Parser, EntityDecodingInTextAndAttributes) {
  auto doc = MustParse(R"(<p title="a&amp;b">x &lt; y</p>)");
  Node* p = doc->FindFirstByTag("p");
  EXPECT_EQ(p->GetAttribute("title").value(), "a&b");
  EXPECT_EQ(p->InnerText(), "x < y");
}

TEST(Parser, RecoversFromUnmatchedCloseTags) {
  auto doc = MustParse("<div><p>text</span></p></div><p>after</p>");
  EXPECT_EQ(doc->FindByTag("p").size(), 2u);
}

TEST(Parser, UnclosedElementsCloseAtEof) {
  auto doc = MustParse("<div><p>dangling");
  Node* p = doc->FindFirstByTag("p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->InnerText(), "dangling");
}

TEST(Parser, SelfClosingNonVoidElement) {
  auto doc = MustParse("<div/><p>next</p>");
  // The self-closed div must not swallow the paragraph.
  Node* div = doc->FindFirstByTag("div");
  EXPECT_TRUE(div->children().empty());
  EXPECT_NE(doc->FindFirstByTag("p"), nullptr);
}

TEST(Parser, LoneAngleBracketIsText) {
  auto doc = MustParse("<p>3 < 5 is true</p>");
  EXPECT_EQ(doc->FindFirstByTag("p")->InnerText(), "3 < 5 is true");
}

TEST(Parser, DepthLimitGuardsPathologicalInput) {
  std::string bomb;
  for (int i = 0; i < 600; ++i) bomb += "<div>";
  EXPECT_FALSE(ParseDocument(bomb).ok());
}

// --- DOM ----------------------------------------------------------------------

TEST(Dom, SerializeRoundTripsThroughParser) {
  const std::string original =
      R"(<!DOCTYPE html><html><body><div class="a" id="z"><p>x &amp; y</p>)"
      R"(<img src="i.ppm" width="2" height="3"/></div></body></html>)";
  auto doc = MustParse(original);
  const std::string serialized = doc->Serialize();
  auto doc2 = MustParse(serialized);
  EXPECT_EQ(serialized, doc2->Serialize());  // fixed point after one pass
}

TEST(Dom, ClassQueries) {
  auto doc = MustParse(
      R"(<div class="generated content"></div><div class="content"></div>)");
  EXPECT_EQ(doc->FindByClass("generated content").size(), 1u);
  EXPECT_EQ(doc->FindByClass("content").size(), 2u);
  EXPECT_TRUE(doc->FindByClass("nope").empty());
}

TEST(Dom, ReplaceChildSwapsSubtree) {
  auto doc = MustParse("<div><p>old</p></div>");
  Node* div = doc->FindFirstByTag("div");
  Node* p = doc->FindFirstByTag("p");
  auto replacement = Node::MakeElement("span");
  replacement->AppendChild(Node::MakeText("new"));
  auto old = div->ReplaceChild(p, std::move(replacement));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->InnerText(), "old");
  EXPECT_EQ(div->InnerText(), "new");
  // Replacing a non-child returns null.
  EXPECT_EQ(div->ReplaceChild(old.get(), Node::MakeText("x")), nullptr);
}

TEST(Dom, CloneIsDeepAndIndependent) {
  auto doc = MustParse(R"(<div a="1"><p>t</p></div>)");
  auto clone = doc->Clone();
  doc->FindFirstByTag("p")->AppendChild(Node::MakeText("!"));
  EXPECT_EQ(clone->FindFirstByTag("p")->InnerText(), "t");
  EXPECT_EQ(clone->FindFirstByTag("div")->GetAttribute("a").value(), "1");
}

TEST(Dom, SetAttributeOverwritesAndRemoves) {
  auto node = Node::MakeElement("div");
  node->SetAttribute("k", "1");
  node->SetAttribute("K", "2");
  EXPECT_EQ(node->attributes().size(), 1u);
  EXPECT_EQ(node->GetAttribute("k").value(), "2");
  node->RemoveAttribute("k");
  EXPECT_FALSE(node->GetAttribute("k").has_value());
}

// --- generated content (§4.1) ---------------------------------------------------

const char kGoldfishDiv[] =
    R"(<div class="generated content" content-type="img" )"
    R"(metadata='{"prompt":"A cartoon goldfish","name":"goldfish",)"
    R"("width":512,"height":512}'></div>)";

TEST(GeneratedContent, ExtractsImageSpec) {
  auto doc = MustParse(kGoldfishDiv);
  ExtractionResult result = ExtractGeneratedContent(*doc);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.specs.size(), 1u);
  const GeneratedContentSpec& spec = result.specs[0];
  EXPECT_EQ(spec.type, GeneratedContentType::kImage);
  EXPECT_EQ(spec.prompt(), "A cartoon goldfish");
  EXPECT_EQ(spec.name(), "goldfish");
  EXPECT_EQ(spec.width(), 512);
  EXPECT_EQ(spec.height(), 512);
  EXPECT_GT(spec.MetadataBytes(), 0u);
}

TEST(GeneratedContent, ExtractsTextSpecWithBullets) {
  auto doc = MustParse(
      R"(<div class="generated content" content-type="txt" )"
      R"(metadata='{"prompt":"expand","bullets":["a b","c d"],"words":150}')"
      R"(></div>)");
  ExtractionResult result = ExtractGeneratedContent(*doc);
  ASSERT_EQ(result.specs.size(), 1u);
  EXPECT_EQ(result.specs[0].type, GeneratedContentType::kText);
  EXPECT_EQ(result.specs[0].words(), 150);
  EXPECT_EQ(result.specs[0].metadata.Get("bullets")->AsArray().size(), 2u);
}

TEST(GeneratedContent, DefaultDimensionsWhenAbsent) {
  auto doc = MustParse(
      R"(<div class="generated content" content-type="img" )"
      R"(metadata='{"prompt":"x"}'></div>)");
  ExtractionResult result = ExtractGeneratedContent(*doc);
  ASSERT_EQ(result.specs.size(), 1u);
  EXPECT_EQ(result.specs[0].width(), 512);
  EXPECT_EQ(result.specs[0].height(), 512);
}

struct InvalidDivCase {
  const char* name;
  const char* html;
};

// The printed parameter becomes part of the ctest name; gtest's default
// byte dump would print the two string addresses, which change from run to
// run.
void PrintTo(const InvalidDivCase& c, std::ostream* os) { *os << c.name; }

class GeneratedContentInvalid : public ::testing::TestWithParam<InvalidDivCase> {};

TEST_P(GeneratedContentInvalid, ReportedAsErrorNotSpec) {
  auto doc = MustParse(GetParam().html);
  ExtractionResult result = ExtractGeneratedContent(*doc);
  EXPECT_TRUE(result.specs.empty()) << GetParam().name;
  EXPECT_EQ(result.errors.size(), 1u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeneratedContentInvalid,
    ::testing::Values(
        InvalidDivCase{"missing_content_type",
                       R"(<div class="generated content" )"
                       R"(metadata='{"prompt":"x"}'></div>)"},
        InvalidDivCase{"unsupported_type",
                       R"(<div class="generated content" content-type="vid" )"
                       R"(metadata='{"prompt":"x"}'></div>)"},
        InvalidDivCase{"missing_metadata",
                       R"(<div class="generated content" content-type="img"></div>)"},
        InvalidDivCase{"metadata_not_json",
                       R"(<div class="generated content" content-type="img" )"
                       R"(metadata='{broken'></div>)"},
        InvalidDivCase{"metadata_not_object",
                       R"(<div class="generated content" content-type="img" )"
                       R"(metadata='[1,2]'></div>)"},
        InvalidDivCase{"missing_prompt",
                       R"(<div class="generated content" content-type="img" )"
                       R"(metadata='{"name":"x"}'></div>)"}),
    [](const ::testing::TestParamInfo<InvalidDivCase>& info) {
      return info.param.name;
    });

TEST(GeneratedContent, Figure1BeforeAfterImage) {
  // Figure 1: before, the div carries the prompt; after, it carries the
  // pointer to the generated file.
  auto doc = MustParse(kGoldfishDiv);
  ExtractionResult result = ExtractGeneratedContent(*doc);
  ASSERT_EQ(result.specs.size(), 1u);
  Node& div = *result.specs[0].node;
  ReplaceWithImage(div, "generated/goldfish.jpg", 512, 512,
                   "A cartoon goldfish");
  const std::string after = doc->Serialize();
  EXPECT_NE(after.find("media content"), std::string::npos);
  EXPECT_NE(after.find("generated/goldfish.jpg"), std::string::npos);
  EXPECT_EQ(after.find("metadata"), std::string::npos);
  EXPECT_EQ(after.find("content-type"), std::string::npos);
  // The replaced page no longer contains generation placeholders.
  EXPECT_TRUE(ExtractGeneratedContent(*doc).specs.empty());
}

TEST(GeneratedContent, ReplaceWithTextProducesParagraph) {
  auto doc = MustParse(
      R"(<div class="generated content" content-type="txt" )"
      R"(metadata='{"prompt":"p","words":50}'></div>)");
  ExtractionResult result = ExtractGeneratedContent(*doc);
  ASSERT_EQ(result.specs.size(), 1u);
  ReplaceWithText(*result.specs[0].node, "expanded prose here");
  Node* p = doc->FindFirstByTag("p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->InnerText(), "expanded prose here");
}

TEST(GeneratedContent, MakeDivRoundTripsThroughParser) {
  json::Value metadata{json::Object{}};
  metadata.Set("prompt", "a \"quoted\" <prompt> & more");
  metadata.Set("width", 224);
  auto div = MakeGeneratedContentDiv(GeneratedContentType::kImage, metadata);
  auto doc = MustParse(div->Serialize());
  ExtractionResult result = ExtractGeneratedContent(*doc);
  ASSERT_EQ(result.specs.size(), 1u);
  EXPECT_EQ(result.specs[0].prompt(), "a \"quoted\" <prompt> & more");
  EXPECT_EQ(result.specs[0].width(), 224);
}

}  // namespace
}  // namespace sww::html
