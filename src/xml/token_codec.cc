#include "xml/token_codec.h"

#include <cstring>

#include "common/varint.h"

namespace laxml {

namespace {
bool ValidTokenType(uint8_t t) {
  return t <= static_cast<uint8_t>(TokenType::kProcessingInstruction);
}

/// Token types whose name field is symbol-coded in the stored form.
bool SymbolCodedName(TokenType t) {
  return t == TokenType::kBeginElement || t == TokenType::kBeginAttribute;
}

/// GetVarint64 with the one-byte case inline: lengths, symbols and
/// annotations are almost always below 128, and the decoders run once
/// per scanned token.
inline const uint8_t* ReadVarint(const uint8_t* p, const uint8_t* limit,
                                 uint64_t* v) {
  if (p < limit && *p < 0x80) {
    *v = *p;
    return p + 1;
  }
  return GetVarint64(p, limit, v);
}

/// Reads a [len varint][bytes] field into *out (a view into the buffer);
/// nullptr when it runs past `limit`.
inline const uint8_t* ReadField(const uint8_t* p, const uint8_t* limit,
                                std::string_view* out) {
  uint64_t len = 0;
  p = ReadVarint(p, limit, &len);
  if (p == nullptr || static_cast<uint64_t>(limit - p) < len) return nullptr;
  *out = {reinterpret_cast<const char*>(p), static_cast<size_t>(len)};
  return p + len;
}

/// One token's fields, the strings viewed in the buffer (or, for a
/// symbol-coded name, in the dictionary).
struct RawToken {
  uint8_t type = 0;
  uint32_t symbol = kNoNameSymbol;  ///< Unless the name is symbol-coded.
  std::string_view name;
  std::string_view value;
  TypeAnnotation psvi = kUntypedAnnotation;
};

/// Reads the token at *p into *raw and advances *p past it. In the stored
/// form (kStored) a begin-element or begin-attribute name is a symbol
/// code, resolved in `dict` when there is one (an unknown symbol is
/// Corruption); code 0, and every name in the inline form, is followed
/// by the name field. Forced inline into each decoder: Skip runs once
/// per scanned token, and an out-of-line call slowed it measurably.
template <bool kStored>
[[gnu::always_inline]] inline Status ReadToken(const uint8_t** p, const uint8_t* limit,
                 const NameDictionary* dict, RawToken* raw) {
  const uint8_t* q = *p;
  if (q >= limit) return Status::Corruption("token read past end");
  raw->type = *q++;
  if (!ValidTokenType(raw->type)) {
    return Status::Corruption("invalid token type byte");
  }
  uint64_t code = 0;  // 0: the name field follows
  if (kStored && SymbolCodedName(static_cast<TokenType>(raw->type))) {
    q = ReadVarint(q, limit, &code);
    if (q == nullptr || code > UINT32_MAX) {
      return Status::Corruption("token symbol truncated");
    }
  }
  raw->symbol = kNoNameSymbol;
  raw->name = {};
  if (code != 0) {
    raw->symbol = static_cast<uint32_t>(code - 1);
    if (dict != nullptr) {
      const std::string* name = dict->NameOf(raw->symbol);
      if (name == nullptr) {
        return Status::Corruption("dangling dictionary symbol " +
                                  std::to_string(raw->symbol));
      }
      raw->name = *name;
    }
  } else if ((q = ReadField(q, limit, &raw->name)) == nullptr) {
    return Status::Corruption("token name truncated");
  }
  if ((q = ReadField(q, limit, &raw->value)) == nullptr) {
    return Status::Corruption("token value truncated");
  }
  uint64_t psvi = 0;
  q = ReadVarint(q, limit, &psvi);
  if (q == nullptr || psvi > UINT32_MAX) {
    return Status::Corruption("token psvi truncated");
  }
  raw->psvi = static_cast<TypeAnnotation>(psvi);
  *p = q;
  return Status::OK();
}

/// Writes a [len varint][bytes] field at `p`; returns one past it.
inline uint8_t* PutField(uint8_t* p, std::string_view s) {
  p = PutVarint(p, s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

/// The one token writer: writes `token` at `p` (room for
/// MaxEncodedTokenSize) and returns one past it. In the stored form
/// (kStored) a begin-element or begin-attribute name is interned in
/// `dict` and written as its symbol code, or as code 0 plus the name
/// field when there is no dictionary or it refuses the name.
template <bool kStored>
inline uint8_t* PutToken(const Token& token, NameDictionary* dict,
                         uint8_t* p) {
  *p++ = static_cast<uint8_t>(token.type);
  if (kStored && SymbolCodedName(token.type)) {
    const uint32_t sym =
        dict != nullptr ? dict->Intern(token.name) : kNoNameSymbol;
    if (sym != kNoNameSymbol) {
      p = PutVarint(p, uint64_t{sym} + 1);
    } else {
      *p++ = 0;  // inline-name marker
      p = PutField(p, token.name);
    }
  } else {
    p = PutField(p, token.name);
  }
  p = PutField(p, token.value);
  return PutVarint(p, token.psvi_type);
}
}  // namespace

void EncodeToken(const Token& token, std::vector<uint8_t>* dst) {
  const size_t old = dst->size();
  dst->resize(old + EncodedTokenSize(token));
  PutToken<false>(token, nullptr, dst->data() + old);
}

size_t EncodedTokenSize(const Token& token) {
  return 1 + VarintLength(token.name.size()) + token.name.size() +
         VarintLength(token.value.size()) + token.value.size() +
         VarintLength(token.psvi_type);
}

std::vector<uint8_t> EncodeTokens(const std::vector<Token>& tokens) {
  size_t total = 0;
  for (const Token& t : tokens) total += EncodedTokenSize(t);
  std::vector<uint8_t> out(total);
  uint8_t* p = out.data();
  for (const Token& t : tokens) p = PutToken<false>(t, nullptr, p);
  return out;
}

uint8_t* EncodeTokenWith(const Token& token, NameDictionary* dict,
                         uint8_t* dst) {
  return PutToken<true>(token, dict, dst);
}

void EncodeTokenWith(const Token& token, NameDictionary* dict,
                     std::vector<uint8_t>* dst) {
  const size_t old = dst->size();
  dst->resize(old + MaxEncodedTokenSize(token));
  uint8_t* end = PutToken<true>(token, dict, dst->data() + old);
  dst->resize(static_cast<size_t>(end - dst->data()));
}

Status TokenReader::Next(Token* token) {
  const uint8_t* p = buf_.data() + pos_;
  RawToken raw;
  LAXML_RETURN_IF_ERROR(
      ReadToken<true>(&p, buf_.data() + buf_.size(), dict_, &raw));
  if (raw.symbol != kNoNameSymbol && dict_ == nullptr) {
    return Status::Corruption("dangling dictionary symbol " +
                              std::to_string(raw.symbol));
  }
  token->type = static_cast<TokenType>(raw.type);
  token->name.assign(raw.name);
  token->value.assign(raw.value);
  token->psvi_type = raw.psvi;
  last_name_symbol_ = raw.symbol;
  last_value_ = raw.value;
  pos_ = static_cast<size_t>(p - buf_.data());
  return Status::OK();
}

Status TokenReader::Skip(TokenType* type) {
  const uint8_t* p = buf_.data() + pos_;
  RawToken raw;
  LAXML_RETURN_IF_ERROR(
      ReadToken<true>(&p, buf_.data() + buf_.size(), dict_, &raw));
  *type = static_cast<TokenType>(raw.type);
  last_name_symbol_ = raw.symbol;
  last_value_ = raw.value;
  pos_ = static_cast<size_t>(p - buf_.data());
  return Status::OK();
}

Result<std::vector<Token>> DecodeTokens(Slice buffer) {
  std::vector<Token> out;
  const uint8_t* p = buffer.data();
  const uint8_t* limit = p + buffer.size();
  RawToken raw;
  while (p < limit) {
    LAXML_RETURN_IF_ERROR(ReadToken<false>(&p, limit, nullptr, &raw));
    Token& t = out.emplace_back();
    t.type = static_cast<TokenType>(raw.type);
    t.name.assign(raw.name);
    t.value.assign(raw.value);
    t.psvi_type = raw.psvi;
  }
  return out;
}

Result<std::vector<Token>> DecodeTokens(Slice buffer,
                                        const NameDictionary* dict) {
  std::vector<Token> out;
  TokenReader reader(buffer, dict);
  Token t;
  while (!reader.AtEnd()) {
    LAXML_RETURN_IF_ERROR(reader.Next(&t));
    out.push_back(t);
  }
  return out;
}

}  // namespace laxml
