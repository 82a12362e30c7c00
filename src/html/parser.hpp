// parser.hpp — HTML tokenizer and tree builder.
//
// A pragmatic parser for the HTML subset that webpages in the SWW pipeline
// use: nested elements with quoted/unquoted attributes, void and
// self-closing elements, comments, doctype, raw-text elements (script,
// style) and character references.  Error recovery follows browser
// behaviour where cheap: unmatched close tags are dropped, unclosed
// elements are closed at EOF.
#pragma once

#include <memory>
#include <string_view>

#include "html/dom.hpp"
#include "util/error.hpp"

namespace sww::html {

/// Parse a document.  Never fails hard on malformed markup (browsers
/// don't); the Result is an error only for pathological input (nesting
/// beyond the depth limit).
util::Result<std::unique_ptr<Node>> ParseDocument(std::string_view html);

}  // namespace sww::html
