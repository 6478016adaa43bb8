// Binary token codec: the serialized form of tokens. Varint-framed so
// short names and absent fields cost one byte (paper desideratum 6, low
// storage overhead). Node ids are deliberately NOT part of the format —
// they are regenerated from the Range's start id (Section 4.3).
//
// Two forms, each with one use:
//
// Inline form — the WAL and wire form, self-contained (no dictionary):
//   [type u8][name_len varint][name bytes][value_len varint][value bytes]
//   [psvi_type varint]
//
// Stored form — every Range payload: identical to the inline form except
// that for kBeginElement / kBeginAttribute the name field becomes
//   [name_code varint]            code >= 1: symbol id (code - 1) in the
//                                 store's NameDictionary
//   [0 varint][name_len][bytes]   code == 0: the name inline (dictionary
//                                 full — budget-bounded, see
//                                 name_dictionary.h)
// Every other token type (PI targets included) keeps inline names, and
// value / psvi fields are unchanged. A begin-element token for an
// interned tag costs 4 bytes instead of 4 + len(tag); a name the
// dictionary refuses costs one byte more than inline.

#ifndef LAXML_XML_TOKEN_CODEC_H_
#define LAXML_XML_TOKEN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/varint.h"
#include "xml/name_dictionary.h"
#include "xml/token.h"

namespace laxml {

/// Upper bound on the encoded size of a closing token (end element,
/// attribute or document) in either form: the type byte, empty name
/// and value lengths, and a psvi varint of at most five bytes. A reader
/// that knows where a subtree's closing token starts fetches this much
/// past it.
inline constexpr size_t kMaxClosingTokenBytes = 8;

/// Appends the inline form of `token` to `dst` (WAL / wire form).
void EncodeToken(const Token& token, std::vector<uint8_t>* dst);

/// Inline-form size of a token without encoding it.
size_t EncodedTokenSize(const Token& token);

/// Encodes a whole sequence in the inline form.
std::vector<uint8_t> EncodeTokens(const std::vector<Token>& tokens);

/// Room that encoding `token` in either form may take: the type byte,
/// a code-0 marker, two length varints, a psvi varint and the strings.
inline size_t MaxEncodedTokenSize(const Token& token) {
  return 2 + 2 * kMaxVarint64Bytes + kMaxVarint32Bytes + token.name.size() +
         token.value.size();
}

/// Writes the stored form of `token` at `dst`, which has room for
/// MaxEncodedTokenSize(token) bytes, and returns one past its last byte.
/// `dict` (may be null => every name inline) interns element/attribute
/// names with one lookup each; a name the budget-full dictionary refuses
/// is written inline after code 0.
uint8_t* EncodeTokenWith(const Token& token, NameDictionary* dict,
                         uint8_t* dst);

/// Appends the stored form of `token` to `dst` (see above).
void EncodeTokenWith(const Token& token, NameDictionary* dict,
                     std::vector<uint8_t>* dst);

/// Streaming decoder over a stored-form token buffer (a range payload).
/// Tracks the byte offset of each token, which is what the partial index
/// memoizes.
class TokenReader {
 public:
  TokenReader() = default;
  /// `dict` resolves symbol codes; without one, Next() fails on any.
  TokenReader(Slice buffer, const NameDictionary* dict)
      : buf_(buffer), dict_(dict) {}

  /// True when at least one more token is available.
  bool AtEnd() const { return pos_ >= buf_.size(); }

  /// Byte offset of the next token (== offset the upcoming Next() call
  /// will report for its token).
  size_t offset() const { return pos_; }

  /// Decodes the next token into *token. Fails with Corruption on
  /// malformed input — including a symbol id the dictionary cannot
  /// resolve (dangling symbol).
  Status Next(Token* token);

  /// Skips the next token without materializing strings; stores its
  /// decoded header in *type, and its value as last_value(). Faster
  /// than Next() for scans that only count ids / depth or look at a
  /// value in place. Applies every check Next() applies (a symbol
  /// is resolved only when the reader has a dictionary), so Next() at
  /// an offset Skip() accepted with a dictionary cannot fail.
  Status Skip(TokenType* type);

  /// Symbol id of the name of the token most recently consumed by
  /// Next() or Skip(); kNoNameSymbol when it was inline or nameless.
  uint32_t last_name_symbol() const { return last_name_symbol_; }

  /// Value bytes (text, comment, attribute value or PI data) of the
  /// token most recently consumed by Next() or Skip(), in the buffer:
  /// valid while the buffer is.
  std::string_view last_value() const { return last_value_; }

  /// Positions at an absolute byte offset (must be a token boundary
  /// previously obtained from offset()).
  void SeekTo(size_t offset) { pos_ = offset; }

 private:
  Slice buf_;
  const NameDictionary* dict_ = nullptr;
  size_t pos_ = 0;
  uint32_t last_name_symbol_ = kNoNameSymbol;
  std::string_view last_value_;
};

/// Decodes an entire inline-form buffer (a WAL record, a wire frame).
Result<std::vector<Token>> DecodeTokens(Slice buffer);

/// Decodes an entire stored-form buffer, resolving symbols in `dict`.
Result<std::vector<Token>> DecodeTokens(Slice buffer,
                                        const NameDictionary* dict);

}  // namespace laxml

#endif  // LAXML_XML_TOKEN_CODEC_H_
