// Token sequence -> XML text. The inverse of the tokenizer; used by
// Store::Read() consumers and by round-trip tests (parse ∘ serialize ==
// identity modulo insignificant whitespace).

#ifndef LAXML_XML_SERIALIZER_H_
#define LAXML_XML_SERIALIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/token_sequence.h"

namespace laxml {

/// Streaming serializer: tokens go in one at a time, in document order,
/// and only the text accumulates, so a caller that decodes each token
/// into one reused Token (Store::SerializeToXml) never holds a sequence.
/// The output is compact XML: no declaration, no added whitespace, and
/// `<a/>` for an empty element.
class XmlWriter {
 public:
  /// Appends `token`'s markup. InvalidArgument on a nesting violation
  /// (an end element with no begin, an attribute outside a start tag).
  Status Add(const Token& token);

  /// InvalidArgument while an element is still open; otherwise hands
  /// over the text. The writer is spent either way.
  Result<std::string> Finish();

 private:
  void CloseStartTag();
  void AppendEscaped(std::string_view text, bool attribute);

  std::string out_;
  std::vector<std::string> open_names_;
  bool tag_open_ = false;
};

/// Serializes a well-formed fragment or document through one XmlWriter.
Result<std::string> SerializeTokens(const TokenSequence& tokens);

}  // namespace laxml

#endif  // LAXML_XML_SERIALIZER_H_
