// XML text -> token sequence. A from-scratch, non-validating pull parser
// covering the slice of XML the store and benchmarks need: elements,
// attributes, character data with entity references, CDATA sections,
// comments, processing instructions, and the XML declaration. DTDs and
// namespaces-as-semantics are out of scope (prefixes pass through as
// part of names).

#ifndef LAXML_XML_TOKENIZER_H_
#define LAXML_XML_TOKENIZER_H_

#include <string_view>

#include "common/status.h"
#include "xml/token_sequence.h"

namespace laxml {

/// Parses a complete document; the result is wrapped in
/// BeginDocument/EndDocument and contains exactly one root element.
Result<TokenSequence> ParseDocument(std::string_view xml);

/// Parses a fragment: a sequence of elements / text / comments / PIs
/// with no document wrapper. This is the form update payloads take.
Result<TokenSequence> ParseFragment(std::string_view xml);

/// Shared lexical helpers — one definition serving both the batch
/// Scanner above and the incremental StreamTokenizer (stream_loader.h),
/// so the two agree byte-for-byte on names and entity decoding.
namespace xmldetail {

bool IsXmlWhitespace(char c);
bool IsNameStartChar(char c);
bool IsNameChar(char c);

/// Decodes entity and character references in `raw` into `out`.
/// Positionless ParseError on bad references; callers add line info.
Status DecodeEntities(std::string_view raw, std::string* out);

}  // namespace xmldetail

}  // namespace laxml

#endif  // LAXML_XML_TOKENIZER_H_
