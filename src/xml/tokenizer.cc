#include "xml/tokenizer.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace laxml {

namespace {

/// Construct-parser results besides an offset (see tokenizer.h).
constexpr size_t kMore = std::string_view::npos;
constexpr size_t kFailed = std::string_view::npos - 1;

bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

size_t SkipWhitespace(std::string_view in, size_t i) {
  while (i < in.size() && IsXmlWhitespace(in[i])) ++i;
  return i;
}

size_t SkipNameChars(std::string_view in, size_t i) {
  while (i < in.size() && IsNameChar(in[i])) ++i;
  return i;
}

bool LookingAt(std::string_view in, size_t pos, std::string_view marker) {
  return in.substr(pos, marker.size()) == marker;
}

/// True when `in[pos..]` is a proper prefix of `marker`: the next chunk
/// could still complete it, so the caller must wait.
bool PrefixPending(std::string_view in, size_t pos, std::string_view marker,
                   bool at_end) {
  std::string_view tail = in.substr(pos);
  return !at_end && tail.size() < marker.size() &&
         marker.substr(0, tail.size()) == tail;
}

uint64_t CountNewlines(std::string_view s) {
  uint64_t n = 0;
  const char* p = s.data();
  const char* end = p + s.size();
  while (p < end) {
    p = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (p == nullptr) break;
    ++n;
    ++p;
  }
  return n;
}

void AppendUtf8(unsigned cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Appends `raw` to `out` with entity and character references decoded.
/// Positionless ParseError on a bad reference; the caller adds the line.
Status DecodeEntities(std::string_view raw, std::string* out) {
  size_t i = 0;
  while (true) {
    size_t amp = raw.find('&', i);
    out->append(raw.substr(i, amp - i));
    if (amp == std::string_view::npos) return Status::OK();
    size_t semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
    if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      std::string digits(ent.substr(1));
      long code = !digits.empty() && (digits[0] == 'x' || digits[0] == 'X')
                      ? std::strtol(digits.c_str() + 1, nullptr, 16)
                      : std::strtol(digits.c_str(), nullptr, 10);
      if (code <= 0 || code > 0x10FFFF) {
        return Status::ParseError("bad character reference");
      }
      AppendUtf8(static_cast<unsigned>(code), out);
    } else {
      return Status::ParseError("unknown entity '&" + std::string(ent) +
                                ";'");
    }
    i = semi + 1;
  }
}

}  // namespace

StreamTokenizer::StreamTokenizer(Input input)
    : input_(input),
      stage_(input == Input::kDocument ? Stage::kStart : Stage::kContent) {}

size_t StreamTokenizer::Fail(std::string_view in, size_t at,
                             const std::string& what) {
  uint64_t line = lines_ + 1 + CountNewlines(in.substr(0, at));
  error_ = Status::ParseError(what + " at line " + std::to_string(line));
  return kFailed;
}

Status StreamTokenizer::Feed(std::string_view chunk, TokenSequence* out) {
  if (!error_.ok()) return error_;
  // An empty buffer lets the chunk be tokenized in place; only the
  // incomplete construct at its end is copied.
  const bool buffered = !buf_.empty();
  if (buffered) buf_.append(chunk);
  std::string_view in = buffered ? std::string_view(buf_) : chunk;
  size_t pos = Pump(in, /*at_end=*/false, out);
  if (pos == kFailed) return error_;
  lines_ += CountNewlines(in.substr(0, pos));
  if (buffered) {
    buf_.erase(0, pos);
  } else {
    buf_.assign(in.substr(pos));
  }
  return Status::OK();
}

Status StreamTokenizer::Finish(TokenSequence* out) {
  if (!error_.ok()) return error_;
  // With at_end set, Pump consumes every byte or fails.
  std::string_view in = buf_;
  if (Pump(in, /*at_end=*/true, out) == kFailed) return error_;
  if (!open_starts_.empty()) {
    Fail(in, in.size(),
         "expected end tag for <" + open_names_.substr(open_starts_.back()) +
             ">");
    return error_;
  }
  buf_.clear();
  if (input_ == Input::kDocument) {
    if (root_elements_ != 1) {
      error_ =
          Status::ParseError("document must have exactly one root element");
      return error_;
    }
    out->push_back(Token::EndDocument());
  }
  return Status::OK();
}

size_t StreamTokenizer::Pump(std::string_view in, bool at_end,
                             TokenSequence* out) {
  size_t pos = 0;
  while (pos < in.size()) {
    size_t next;
    if (stage_ == Stage::kContent) {
      next = Content(in, pos, at_end, out);
    } else if (stage_ == Stage::kStart) {
      out->push_back(Token::BeginDocument());
      stage_ = Stage::kDeclaration;
      continue;
    } else {
      next = Prolog(in, pos, at_end);
    }
    if (next == kMore) return pos;
    if (next == kFailed) return kFailed;
    pos = next;
  }
  return pos;
}

size_t StreamTokenizer::Prolog(std::string_view in, size_t pos,
                               bool at_end) {
  // Whitespace, then an optional "<?xml ...?>" (kDeclaration), or
  // whitespace, then an optional "<!DOCTYPE ...>" (kDoctype).
  pos = SkipWhitespace(in, pos);
  if (pos == in.size()) return pos;
  const bool declaration = stage_ == Stage::kDeclaration;
  std::string_view marker = declaration ? "<?xml" : "<!DOCTYPE";
  if (PrefixPending(in, pos, marker, at_end)) return kMore;
  if (LookingAt(in, pos, marker)) {
    size_t end = kMore;
    if (declaration) {
      size_t close = in.find("?>", pos);
      if (close != std::string_view::npos) end = close + 2;
    } else {
      // The matching '>', skipping an internal subset's brackets.
      int bracket = 0;
      for (size_t i = pos; i < in.size(); ++i) {
        if (in[i] == '[') ++bracket;
        if (in[i] == ']') --bracket;
        if (in[i] == '>' && bracket == 0) {
          end = i + 1;
          break;
        }
      }
    }
    if (end == kMore) {
      if (!at_end) return kMore;
      if (declaration) return Fail(in, pos, "unterminated XML declaration");
      end = in.size();  // an unclosed DOCTYPE swallows the rest
    }
    pos = end;
  }
  stage_ = declaration ? Stage::kDoctype : Stage::kContent;
  return pos;
}

size_t StreamTokenizer::Content(std::string_view in, size_t pos, bool at_end,
                                TokenSequence* out) {
  const bool document_top =
      input_ == Input::kDocument && open_starts_.empty();
  if (document_top) {
    pos = SkipWhitespace(in, pos);
    if (pos == in.size()) return pos;
    if (in[pos] != '<') return Fail(in, pos, "text outside the root element");
  }

  if (in[pos] != '<') {
    size_t lt = in.find('<', pos);
    if (lt == std::string_view::npos) {
      if (!at_end) return kMore;  // the run may continue in the next chunk
      lt = in.size();
    }
    std::string text;
    Status st = DecodeEntities(in.substr(pos, lt - pos), &text);
    if (!st.ok()) return Fail(in, pos, st.message());
    out->push_back(Token::Text(std::move(text)));
    return lt;
  }

  // Markup. Every construct is recognized by an ASCII marker; if the
  // buffer ends inside a marker, wait for the next chunk.
  if (pos + 1 == in.size()) {
    return at_end ? Fail(in, pos, "unterminated markup") : kMore;
  }
  switch (in[pos + 1]) {
    case '/':
      return EndTag(in, pos, at_end, out);
    case '?': {
      size_t end = in.find("?>", pos + 2);
      if (end == std::string_view::npos) {
        return at_end ? Fail(in, pos, "unterminated PI") : kMore;
      }
      size_t i = pos + 2;
      if (i == end || !IsNameStartChar(in[i])) {
        return Fail(in, i, "expected name");
      }
      size_t name_end = SkipNameChars(in.substr(0, end), i);
      size_t data = SkipWhitespace(in.substr(0, end), name_end);
      out->push_back(Token::PI(std::string(in.substr(i, name_end - i)),
                               std::string(in.substr(data, end - data))));
      return end + 2;
    }
    case '!': {
      if (PrefixPending(in, pos, "<!--", at_end) ||
          PrefixPending(in, pos, "<![CDATA[", at_end)) {
        return kMore;
      }
      if (LookingAt(in, pos, "<!--")) {
        size_t end = in.find("-->", pos + 4);
        if (end == std::string_view::npos) {
          return at_end ? Fail(in, pos, "unterminated comment") : kMore;
        }
        out->push_back(
            Token::Comment(std::string(in.substr(pos + 4, end - pos - 4))));
        return end + 3;
      }
      if (LookingAt(in, pos, "<![CDATA[")) {
        if (document_top) {
          return Fail(in, pos, "text outside the root element");
        }
        size_t end = in.find("]]>", pos + 9);
        if (end == std::string_view::npos) {
          return at_end ? Fail(in, pos, "unterminated CDATA") : kMore;
        }
        // CDATA content is literal text, no entity decoding.
        out->push_back(
            Token::Text(std::string(in.substr(pos + 9, end - pos - 9))));
        return end + 3;
      }
      return Fail(in, pos, "unsupported markup declaration");
    }
    default:
      return StartTag(in, pos, at_end, out);
  }
}

size_t StreamTokenizer::StartTag(std::string_view in, size_t pos,
                                 bool at_end, TokenSequence* out) {
  // One pass over "<name attr='v' ...>" or "<name .../>", emitting as it
  // goes. If the buffer ends inside the tag, the tokens are taken back
  // and the whole tag waits for the next chunk.
  const size_t mark = out->size();
  auto more = [&]() {
    out->resize(mark);
    return at_end ? Fail(in, pos, "unterminated start tag") : kMore;
  };
  size_t i = pos + 1;
  if (!IsNameStartChar(in[i])) return Fail(in, i, "expected name");
  const size_t name_end = SkipNameChars(in, i + 1);
  if (name_end == in.size()) return more();
  const std::string_view name = in.substr(i, name_end - i);
  out->push_back(Token::BeginElement(std::string(name)));
  i = name_end;
  while (true) {
    i = SkipWhitespace(in, i);
    if (i == in.size()) return more();
    if (in[i] == '>') break;
    if (in[i] == '/') {
      if (i + 1 == in.size()) return more();
      if (in[i + 1] == '>') {
        if (open_starts_.empty()) ++root_elements_;
        out->push_back(Token::EndElement());
        return i + 2;
      }
    }
    if (!IsNameStartChar(in[i])) return Fail(in, i, "expected name");
    const size_t attr = i;
    i = SkipNameChars(in, i + 1);
    const std::string_view attr_name = in.substr(attr, i - attr);
    i = SkipWhitespace(in, i);
    if (i == in.size()) return more();
    if (in[i] != '=') return Fail(in, i, "expected '=' after attribute name");
    i = SkipWhitespace(in, i + 1);
    if (i == in.size()) return more();
    const char quote = in[i];
    if (quote != '"' && quote != '\'') {
      return Fail(in, i, "expected quoted attribute value");
    }
    const size_t close = in.find(quote, ++i);
    const std::string_view raw =
        in.substr(i, close == std::string_view::npos ? kMore : close - i);
    if (raw.find('<') != std::string_view::npos) {
      return Fail(in, i, "'<' in attribute value");
    }
    if (close == std::string_view::npos) return more();
    std::string value;
    Status st = DecodeEntities(raw, &value);
    if (!st.ok()) return Fail(in, i, st.message());
    out->push_back(
        Token::BeginAttribute(std::string(attr_name), std::move(value)));
    out->push_back(Token::EndAttribute());
    i = close + 1;
  }
  if (open_starts_.empty()) ++root_elements_;
  open_starts_.push_back(open_names_.size());
  open_names_.append(name);
  return i + 1;
}

size_t StreamTokenizer::EndTag(std::string_view in, size_t pos, bool at_end,
                               TokenSequence* out) {
  size_t i = pos + 2;
  if (i == in.size()) {
    return at_end ? Fail(in, pos, "unterminated end tag") : kMore;
  }
  if (!IsNameStartChar(in[i])) return Fail(in, i, "expected name");
  const size_t name_end = SkipNameChars(in, i + 1);
  const size_t gt = SkipWhitespace(in, name_end);
  if (gt == in.size()) {
    return at_end ? Fail(in, pos, "unterminated end tag") : kMore;
  }
  if (in[gt] != '>') return Fail(in, gt, "malformed end tag");
  const std::string_view name = in.substr(i, name_end - i);
  if (open_starts_.empty()) return Fail(in, pos, "unexpected end tag");
  const std::string_view open =
      std::string_view(open_names_).substr(open_starts_.back());
  if (name != open) {
    return Fail(in, pos,
                "mismatched end tag </" + std::string(name) + "> for <" +
                    std::string(open) + ">");
  }
  open_names_.resize(open_starts_.back());
  open_starts_.pop_back();
  out->push_back(Token::EndElement());
  return gt + 1;
}

namespace {

Result<TokenSequence> Parse(std::string_view xml,
                            StreamTokenizer::Input input) {
  StreamTokenizer tokenizer(input);
  TokenSequence out;
  LAXML_RETURN_IF_ERROR(tokenizer.Feed(xml, &out));
  LAXML_RETURN_IF_ERROR(tokenizer.Finish(&out));
  return out;
}

}  // namespace

Result<TokenSequence> ParseDocument(std::string_view xml) {
  return Parse(xml, StreamTokenizer::Input::kDocument);
}

Result<TokenSequence> ParseFragment(std::string_view xml) {
  return Parse(xml, StreamTokenizer::Input::kFragment);
}

}  // namespace laxml
