#include "xml/token_codec.h"

#include <cstring>

#include "common/varint.h"

namespace laxml {

namespace {
bool ValidTokenType(uint8_t t) {
  return t <= static_cast<uint8_t>(TokenType::kProcessingInstruction);
}

/// Token types whose name field is symbol-coded under v2.
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
}  // namespace

void EncodeToken(const Token& token, std::vector<uint8_t>* dst) {
  dst->push_back(static_cast<uint8_t>(token.type));
  PutVarint64(dst, token.name.size());
  dst->insert(dst->end(), token.name.begin(), token.name.end());
  PutVarint64(dst, token.value.size());
  dst->insert(dst->end(), token.value.begin(), token.value.end());
  PutVarint64(dst, token.psvi_type);
}

size_t EncodedTokenSize(const Token& token) {
  return 1 + VarintLength(token.name.size()) + token.name.size() +
         VarintLength(token.value.size()) + token.value.size() +
         VarintLength(token.psvi_type);
}

std::vector<uint8_t> EncodeTokens(const std::vector<Token>& tokens) {
  size_t total = 0;
  for (const Token& t : tokens) total += EncodedTokenSize(t);
  std::vector<uint8_t> out;
  out.reserve(total);
  for (const Token& t : tokens) EncodeToken(t, &out);
  return out;
}

void EncodeTokenWith(const Token& token, uint8_t codec,
                     NameDictionary* dict, std::vector<uint8_t>* dst) {
  if (codec == kTokenCodecV1 || !SymbolCodedName(token.type)) {
    EncodeToken(token, dst);
    return;
  }
  uint32_t sym = dict != nullptr ? dict->Intern(token.name) : kNoNameSymbol;
  dst->push_back(static_cast<uint8_t>(token.type));
  if (sym != kNoNameSymbol) {
    PutVarint32(dst, sym + 1);
  } else {
    dst->push_back(0);  // inline-fallback marker
    PutVarint64(dst, token.name.size());
    dst->insert(dst->end(), token.name.begin(), token.name.end());
  }
  PutVarint64(dst, token.value.size());
  dst->insert(dst->end(), token.value.begin(), token.value.end());
  PutVarint64(dst, token.psvi_type);
}

size_t EncodedTokenSizeWith(const Token& token, uint8_t codec,
                            NameDictionary* dict) {
  if (codec == kTokenCodecV1 || !SymbolCodedName(token.type)) {
    return EncodedTokenSize(token);
  }
  uint32_t sym = dict != nullptr ? dict->Intern(token.name) : kNoNameSymbol;
  size_t name_bytes =
      sym != kNoNameSymbol
          ? VarintLength(sym + 1)
          : 1 + VarintLength(token.name.size()) + token.name.size();
  return 1 + name_bytes + VarintLength(token.value.size()) +
         token.value.size() + VarintLength(token.psvi_type);
}

Status TokenReader::Next(Token* token) {
  const uint8_t* base = buf_.data();
  const uint8_t* limit = base + buf_.size();
  const uint8_t* p = base + pos_;
  last_name_symbol_ = kNoNameSymbol;
  if (p >= limit) return Status::Corruption("token read past end");
  uint8_t type = *p++;
  if (!ValidTokenType(type)) {
    return Status::Corruption("invalid token type byte");
  }
  token->name_symbol = kNoNameSymbol;
  if (ctx_.version >= kTokenCodecV2 &&
      SymbolCodedName(static_cast<TokenType>(type))) {
    uint64_t code = 0;
    p = ReadVarint(p, limit, &code);
    if (p == nullptr || code > UINT32_MAX) {
      return Status::Corruption("token symbol truncated");
    }
    if (code != 0) {
      const uint32_t sym = static_cast<uint32_t>(code - 1);
      const std::string* name =
          ctx_.dict != nullptr ? ctx_.dict->NameOf(sym) : nullptr;
      if (name == nullptr) {
        return Status::Corruption("dangling dictionary symbol " +
                                  std::to_string(sym));
      }
      token->name = *name;
      token->name_symbol = sym;
      last_name_symbol_ = sym;
    } else {
      uint64_t name_len = 0;
      p = ReadVarint(p, limit, &name_len);
      if (p == nullptr || static_cast<uint64_t>(limit - p) < name_len) {
        return Status::Corruption("token name truncated");
      }
      token->name.assign(reinterpret_cast<const char*>(p), name_len);
      p += name_len;
    }
  } else {
    uint64_t name_len = 0;
    p = ReadVarint(p, limit, &name_len);
    if (p == nullptr || static_cast<uint64_t>(limit - p) < name_len) {
      return Status::Corruption("token name truncated");
    }
    token->name.assign(reinterpret_cast<const char*>(p), name_len);
    p += name_len;
  }
  uint64_t value_len, psvi;
  p = ReadVarint(p, limit, &value_len);
  if (p == nullptr || static_cast<uint64_t>(limit - p) < value_len) {
    return Status::Corruption("token value truncated");
  }
  last_value_ = {reinterpret_cast<const char*>(p), value_len};
  token->value.assign(last_value_);
  p += value_len;
  p = ReadVarint(p, limit, &psvi);
  if (p == nullptr || psvi > UINT32_MAX) {
    return Status::Corruption("token psvi truncated");
  }
  token->type = static_cast<TokenType>(type);
  token->psvi_type = static_cast<TypeAnnotation>(psvi);
  pos_ = static_cast<size_t>(p - base);
  return Status::OK();
}

Status TokenReader::Skip(TokenType* type) {
  const uint8_t* base = buf_.data();
  const uint8_t* limit = base + buf_.size();
  const uint8_t* p = base + pos_;
  last_name_symbol_ = kNoNameSymbol;
  if (p >= limit) return Status::Corruption("token skip past end");
  uint8_t t = *p++;
  if (!ValidTokenType(t)) {
    return Status::Corruption("invalid token type byte");
  }
  if (ctx_.version >= kTokenCodecV2 &&
      SymbolCodedName(static_cast<TokenType>(t))) {
    uint64_t code = 0;
    p = ReadVarint(p, limit, &code);
    if (p == nullptr || code > UINT32_MAX) {
      return Status::Corruption("token symbol truncated");
    }
    if (code != 0) {
      const uint32_t sym = static_cast<uint32_t>(code - 1);
      if (ctx_.dict != nullptr && ctx_.dict->NameOf(sym) == nullptr) {
        return Status::Corruption("dangling dictionary symbol " +
                                  std::to_string(sym));
      }
      last_name_symbol_ = sym;
    } else {
      uint64_t name_len = 0;
      p = ReadVarint(p, limit, &name_len);
      if (p == nullptr || static_cast<uint64_t>(limit - p) < name_len) {
        return Status::Corruption("token name truncated");
      }
      p += name_len;
    }
  } else {
    uint64_t name_len = 0;
    p = ReadVarint(p, limit, &name_len);
    if (p == nullptr || static_cast<uint64_t>(limit - p) < name_len) {
      return Status::Corruption("token name truncated");
    }
    p += name_len;
  }
  uint64_t value_len, psvi;
  p = ReadVarint(p, limit, &value_len);
  if (p == nullptr || static_cast<uint64_t>(limit - p) < value_len) {
    return Status::Corruption("token value truncated");
  }
  last_value_ = {reinterpret_cast<const char*>(p), value_len};
  p += value_len;
  p = ReadVarint(p, limit, &psvi);
  if (p == nullptr || psvi > UINT32_MAX) {
    return Status::Corruption("token psvi truncated");
  }
  *type = static_cast<TokenType>(t);
  pos_ = static_cast<size_t>(p - base);
  return Status::OK();
}

Result<std::vector<Token>> DecodeTokens(Slice buffer) {
  return DecodeTokens(buffer, TokenCodecContext());
}

Result<std::vector<Token>> DecodeTokens(Slice buffer,
                                        TokenCodecContext ctx) {
  std::vector<Token> out;
  TokenReader reader(buffer, ctx);
  Token t;
  while (!reader.AtEnd()) {
    LAXML_RETURN_IF_ERROR(reader.Next(&t));
    out.push_back(t);
  }
  return out;
}

}  // namespace laxml
