// Token sequence -> XML text. The inverse of the tokenizer; used by
// Store::Read() consumers and by round-trip tests (parse ∘ serialize ==
// identity modulo insignificant whitespace).

#ifndef LAXML_XML_SERIALIZER_H_
#define LAXML_XML_SERIALIZER_H_

#include <string>

#include "common/status.h"
#include "xml/token_sequence.h"

namespace laxml {

/// Serializes a well-formed fragment or document as compact XML: no
/// declaration, no added whitespace, and `<a/>` for an empty element.
/// Fails with InvalidArgument on nesting violations (e.g. attribute
/// tokens outside an element start).
Result<std::string> SerializeTokens(const TokenSequence& tokens);

/// Escapes character data (& < >).
std::string EscapeText(const std::string& text);

/// Escapes attribute values (& < > ").
std::string EscapeAttribute(const std::string& value);

}  // namespace laxml

#endif  // LAXML_XML_SERIALIZER_H_
