// Binary token codec: the serialized form of tokens as stored in Range
// payloads. Varint-framed so short names and absent fields cost one byte
// (paper desideratum 6, low storage overhead). Node ids are deliberately
// NOT part of the format — they are regenerated from the Range's start
// id (Section 4.3).
//
// Two on-disk versions, selected per range (the range directory stamps
// each payload's codec):
//
// v1 — inline names, the original format and still the WAL / wire form:
//   [type u8][name_len varint][name bytes][value_len varint][value bytes]
//   [psvi_type varint]
//
// v2 — dictionary-coded names: identical to v1 except that for
// kBeginElement / kBeginAttribute the name field becomes
//   [name_code varint]            code >= 1: symbol id (code - 1) in the
//                                 store's NameDictionary
//   [0 varint][name_len][bytes]   code == 0: inline fallback (dictionary
//                                 full — budget-bounded, see
//                                 name_dictionary.h)
// Every other token type (PI targets included) keeps inline names, and
// value / psvi fields are unchanged. A begin-element token for an
// interned tag costs 4 bytes instead of 4 + len(tag).

#ifndef LAXML_XML_TOKEN_CODEC_H_
#define LAXML_XML_TOKEN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "xml/name_dictionary.h"
#include "xml/token.h"

namespace laxml {

/// On-disk codec versions. Append-only.
inline constexpr uint8_t kTokenCodecV1 = 1;
inline constexpr uint8_t kTokenCodecV2 = 2;

/// Upper bound on the encoded size of a closing token (end element,
/// attribute or document) under either codec: the type byte, empty name
/// and value lengths, and a psvi varint of at most five bytes. A reader
/// that knows where a subtree's closing token starts fetches this much
/// past it.
inline constexpr size_t kMaxClosingTokenBytes = 8;

/// How to interpret an encoded payload: the codec version plus the
/// dictionary that resolves v2 symbol ids. v1 needs no dictionary.
struct TokenCodecContext {
  uint8_t version = kTokenCodecV1;
  const NameDictionary* dict = nullptr;

  TokenCodecContext() = default;
  TokenCodecContext(uint8_t v, const NameDictionary* d)
      : version(v), dict(d) {}
};

/// Appends the v1 encoding of `token` to `dst` (WAL / wire form).
void EncodeToken(const Token& token, std::vector<uint8_t>* dst);

/// v1 encoded size of a token without encoding it.
size_t EncodedTokenSize(const Token& token);

/// Encodes a whole sequence in v1.
std::vector<uint8_t> EncodeTokens(const std::vector<Token>& tokens);

/// Appends the encoding of `token` under `codec` to `dst`. For v2,
/// `dict` (may be null => always inline) interns element/attribute
/// names; a name the budget-full dictionary refuses is written inline.
void EncodeTokenWith(const Token& token, uint8_t codec,
                     NameDictionary* dict, std::vector<uint8_t>* dst);

/// Encoded size of `token` under `codec`. NOTE: for v2 this interns the
/// name exactly as EncodeTokenWith would (interning is idempotent), so
/// size-then-encode pairs always agree.
size_t EncodedTokenSizeWith(const Token& token, uint8_t codec,
                            NameDictionary* dict);

/// Streaming decoder over an encoded token buffer. Tracks the byte
/// offset of each token, which is what the partial index memoizes.
class TokenReader {
 public:
  explicit TokenReader(Slice buffer) : buf_(buffer) {}
  TokenReader(Slice buffer, TokenCodecContext ctx)
      : buf_(buffer), ctx_(ctx) {}

  /// True when at least one more token is available.
  bool AtEnd() const { return pos_ >= buf_.size(); }

  /// Byte offset of the next token (== offset the upcoming Next() call
  /// will report for its token).
  size_t offset() const { return pos_; }

  /// Decodes the next token into *token. Fails with Corruption on
  /// malformed input — including a v2 symbol id the dictionary cannot
  /// resolve (dangling symbol).
  Status Next(Token* token);

  /// Skips the next token without materializing strings; stores its
  /// decoded header in *type, and its value as last_value(). Faster
  /// than Next() for scans that only count ids / depth or look at a
  /// value in place. Applies every check Next() applies (a v2 symbol
  /// is resolved only when the reader has a dictionary), so Next() at
  /// an offset Skip() accepted with a dictionary cannot fail.
  Status Skip(TokenType* type);

  /// Symbol id of the name of the token most recently consumed by
  /// Next() or Skip(); kNoNameSymbol when it was v1 / inline / nameless.
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
  TokenCodecContext ctx_;
  size_t pos_ = 0;
  uint32_t last_name_symbol_ = kNoNameSymbol;
  std::string_view last_value_;
};

/// Decodes an entire buffer into a token vector (v1).
Result<std::vector<Token>> DecodeTokens(Slice buffer);

/// Decodes an entire buffer under an explicit codec context.
Result<std::vector<Token>> DecodeTokens(Slice buffer,
                                        TokenCodecContext ctx);

}  // namespace laxml

#endif  // LAXML_XML_TOKEN_CODEC_H_
