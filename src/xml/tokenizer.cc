#include "xml/tokenizer.h"

#include <cctype>
#include <cstdlib>

namespace laxml {

namespace xmldetail {

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

Status DecodeEntities(std::string_view raw, std::string* out) {
  out->clear();
  out->reserve(raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    char c = raw[i];
    if (c != '&') {
      out->push_back(c);
      ++i;
      continue;
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
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
      long code;
      std::string digits(ent.substr(1));
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        code = std::strtol(digits.c_str() + 1, nullptr, 16);
      } else {
        code = std::strtol(digits.c_str(), nullptr, 10);
      }
      if (code <= 0 || code > 0x10FFFF) {
        return Status::ParseError("bad character reference");
      }
      // UTF-8 encode.
      unsigned cp = static_cast<unsigned>(code);
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
    } else {
      return Status::ParseError("unknown entity '&" + std::string(ent) +
                                ";'");
    }
    i = semi + 1;
  }
  return Status::OK();
}

}  // namespace xmldetail

namespace {

using xmldetail::IsNameChar;
using xmldetail::IsNameStartChar;
using xmldetail::IsXmlWhitespace;

/// Recursive-descent scanner over the input text.
class Scanner {
 public:
  explicit Scanner(std::string_view input) : in_(input) {}

  /// Parses a fragment (sequence of content items) into `out`.
  Status ParseContentItems(TokenSequence* out) {
    while (!AtEnd()) {
      if (Peek() == '<') {
        if (LookingAt("</")) {
          return Status::OK();  // caller's end tag
        }
        LAXML_RETURN_IF_ERROR(ParseMarkup(out));
      } else {
        LAXML_RETURN_IF_ERROR(ParseText(out));
      }
    }
    return Status::OK();
  }

  Status SkipProlog() {
    // XML declaration, doctype, and any whitespace/comments/PIs before
    // the root element are consumed; comments/PIs are kept.
    SkipWhitespace();
    if (LookingAt("<?xml")) {
      size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) {
        return Fail("unterminated XML declaration");
      }
      pos_ = end + 2;
    }
    SkipWhitespace();
    if (LookingAt("<!DOCTYPE")) {
      // Skip to the matching '>' (internal subsets with nested brackets).
      int bracket = 0;
      while (!AtEnd()) {
        char c = Take();
        if (c == '[') ++bracket;
        if (c == ']') --bracket;
        if (c == '>' && bracket == 0) break;
      }
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  size_t position() const { return pos_; }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlWhitespace(Peek())) ++pos_;
  }

  Status ParseMarkup(TokenSequence* out) {
    if (LookingAt("<!--")) return ParseComment(out);
    if (LookingAt("<![CDATA[")) return ParseCData(out);
    if (LookingAt("<?")) return ParsePI(out);
    if (LookingAt("<!")) return Fail("unsupported markup declaration");
    return ParseElement(out);
  }

 private:
  char Peek() const { return in_[pos_]; }
  char Take() { return in_[pos_++]; }
  bool LookingAt(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  bool Consume(std::string_view s) {
    if (LookingAt(s)) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Status Fail(const std::string& what) const {
    // Report 1-based line for humans.
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < in_.size(); ++i) {
      if (in_[i] == '\n') ++line;
    }
    return Status::ParseError(what + " at line " + std::to_string(line));
  }

  Status ParseName(std::string* name) {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Fail("expected name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    name->assign(in_.substr(start, pos_ - start));
    return Status::OK();
  }

  /// Decodes entity and character references in [start, end) of the
  /// input into `out`, adding position info to any error.
  Status DecodeText(std::string_view raw, std::string* out) {
    Status st = xmldetail::DecodeEntities(raw, out);
    if (!st.ok()) return Fail(st.message());
    return st;
  }

  Status ParseText(TokenSequence* out) {
    size_t start = pos_;
    while (!AtEnd() && Peek() != '<') ++pos_;
    std::string_view raw = in_.substr(start, pos_ - start);
    std::string decoded;
    LAXML_RETURN_IF_ERROR(DecodeText(raw, &decoded));
    out->push_back(Token::Text(std::move(decoded)));
    return Status::OK();
  }

  Status ParseComment(TokenSequence* out) {
    pos_ += 4;  // "<!--"
    size_t end = in_.find("-->", pos_);
    if (end == std::string_view::npos) return Fail("unterminated comment");
    out->push_back(Token::Comment(std::string(in_.substr(pos_, end - pos_))));
    pos_ = end + 3;
    return Status::OK();
  }

  Status ParseCData(TokenSequence* out) {
    pos_ += 9;  // "<![CDATA["
    size_t end = in_.find("]]>", pos_);
    if (end == std::string_view::npos) return Fail("unterminated CDATA");
    // CDATA content is literal text, no entity decoding.
    out->push_back(Token::Text(std::string(in_.substr(pos_, end - pos_))));
    pos_ = end + 3;
    return Status::OK();
  }

  Status ParsePI(TokenSequence* out) {
    pos_ += 2;  // "<?"
    std::string target;
    LAXML_RETURN_IF_ERROR(ParseName(&target));
    SkipWhitespace();
    size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) return Fail("unterminated PI");
    std::string data(in_.substr(pos_, end - pos_));
    pos_ = end + 2;
    out->push_back(Token::PI(std::move(target), std::move(data)));
    return Status::OK();
  }

  Status ParseAttributeValue(std::string* value) {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Fail("expected quoted attribute value");
    }
    char quote = Take();
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '<') return Fail("'<' in attribute value");
      ++pos_;
    }
    if (AtEnd()) return Fail("unterminated attribute value");
    std::string_view raw = in_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return DecodeText(raw, value);
  }

  Status ParseElement(TokenSequence* out) {
    ++pos_;  // '<'
    std::string name;
    LAXML_RETURN_IF_ERROR(ParseName(&name));
    out->push_back(Token::BeginElement(name));
    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated start tag");
      if (Peek() == '>' || LookingAt("/>")) break;
      std::string attr_name;
      LAXML_RETURN_IF_ERROR(ParseName(&attr_name));
      SkipWhitespace();
      if (!Consume("=")) return Fail("expected '=' after attribute name");
      SkipWhitespace();
      std::string attr_value;
      LAXML_RETURN_IF_ERROR(ParseAttributeValue(&attr_value));
      out->push_back(Token::BeginAttribute(std::move(attr_name),
                                           std::move(attr_value)));
      out->push_back(Token::EndAttribute());
    }
    if (Consume("/>")) {
      out->push_back(Token::EndElement());
      return Status::OK();
    }
    ++pos_;  // '>'
    LAXML_RETURN_IF_ERROR(ParseContentItems(out));
    if (!Consume("</")) return Fail("expected end tag for <" + name + ">");
    std::string end_name;
    LAXML_RETURN_IF_ERROR(ParseName(&end_name));
    if (end_name != name) {
      return Fail("mismatched end tag </" + end_name + "> for <" + name +
                  ">");
    }
    SkipWhitespace();
    if (!Consume(">")) return Fail("malformed end tag");
    out->push_back(Token::EndElement());
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

Result<TokenSequence> ParseDocument(std::string_view xml) {
  Scanner scanner(xml);
  TokenSequence out;
  out.push_back(Token::BeginDocument());
  LAXML_RETURN_IF_ERROR(scanner.SkipProlog());
  scanner.SkipWhitespace();
  // Pre-root comments / PIs.
  size_t root_elements = 0;
  while (!scanner.AtEnd()) {
    size_t before = out.size();
    LAXML_RETURN_IF_ERROR(scanner.ParseMarkup(&out));
    for (size_t i = before; i < out.size(); ++i) {
      if (out[i].type == TokenType::kBeginElement) {
        ++root_elements;
        break;
      }
    }
    scanner.SkipWhitespace();
  }
  if (root_elements != 1) {
    return Status::ParseError("document must have exactly one root element");
  }
  out.push_back(Token::EndDocument());
  return out;
}

Result<TokenSequence> ParseFragment(std::string_view xml) {
  Scanner scanner(xml);
  TokenSequence out;
  LAXML_RETURN_IF_ERROR(scanner.ParseContentItems(&out));
  if (!scanner.AtEnd()) {
    return Status::ParseError("unexpected end-tag in fragment");
  }
  return out;
}

}  // namespace laxml
