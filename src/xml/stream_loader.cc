#include "xml/stream_loader.h"

#include <algorithm>

#include "xml/tokenizer.h"

namespace laxml {

using xmldetail::DecodeEntities;
using xmldetail::IsNameChar;
using xmldetail::IsNameStartChar;
using xmldetail::IsXmlWhitespace;

Status StreamTokenizer::Fail(const std::string& what) {
  uint64_t line = lines_consumed_ + 1;
  for (size_t i = 0; i < pos_ && i < buf_.size(); ++i) {
    if (buf_[i] == '\n') ++line;
  }
  error_ = Status::ParseError(what + " at line " + std::to_string(line));
  failed_ = true;
  return error_;
}

bool StreamTokenizer::LookingAt(std::string_view marker) const {
  return std::string_view(buf_).substr(pos_, marker.size()) == marker;
}

bool StreamTokenizer::PrefixPending(std::string_view marker,
                                    bool at_end) const {
  if (at_end) return false;
  std::string_view tail = std::string_view(buf_).substr(pos_);
  return tail.size() < marker.size() &&
         marker.substr(0, tail.size()) == tail;
}

void StreamTokenizer::SkipWhitespace() {
  while (pos_ < buf_.size() && IsXmlWhitespace(buf_[pos_])) ++pos_;
}

void StreamTokenizer::Compact() {
  if (pos_ == 0) return;
  for (size_t i = 0; i < pos_; ++i) {
    if (buf_[i] == '\n') ++lines_consumed_;
  }
  buf_.erase(0, pos_);
  pos_ = 0;
}

Status StreamTokenizer::Feed(std::string_view chunk, TokenSequence* out) {
  if (failed_) return error_;
  fed_bytes_ += chunk.size();
  buf_.append(chunk);
  Status st = Pump(/*at_end=*/false, out);
  Compact();
  return st;
}

Status StreamTokenizer::Finish(TokenSequence* out) {
  if (failed_) return error_;
  LAXML_RETURN_IF_ERROR(Pump(/*at_end=*/true, out));
  Compact();
  if (!open_.empty()) {
    return Fail("expected end tag for <" + open_.back() + ">");
  }
  if (pos_ < buf_.size()) {
    // Pump with at_end consumed or rejected everything parsable; bytes
    // here are an unterminated construct it chose to report lazily.
    return Fail("unexpected end of input");
  }
  if (root_elements_ != 1) {
    failed_ = true;
    error_ =
        Status::ParseError("document must have exactly one root element");
    return error_;
  }
  out->push_back(Token::EndDocument());
  return Status::OK();
}

Status StreamTokenizer::Pump(bool at_end, TokenSequence* out) {
  if (!began_document_) {
    out->push_back(Token::BeginDocument());
    began_document_ = true;
  }
  while (true) {
    // Prolog: whitespace, then optionally "<?xml ...?>", whitespace,
    // then optionally "<!DOCTYPE ...>", mirroring Scanner::SkipProlog.
    if (stage_ == Stage::kLeadingWs) {
      SkipWhitespace();
      if (pos_ >= buf_.size()) return Status::OK();
      if (PrefixPending("<?xml", at_end)) return Status::OK();
      if (LookingAt("<?xml")) {
        size_t end = buf_.find("?>", pos_);
        if (end == std::string::npos) {
          if (at_end) return Fail("unterminated XML declaration");
          return Status::OK();
        }
        pos_ = end + 2;
      }
      stage_ = Stage::kAfterDecl;
      continue;
    }
    if (stage_ == Stage::kAfterDecl) {
      SkipWhitespace();
      if (pos_ >= buf_.size()) return Status::OK();
      if (PrefixPending("<!DOCTYPE", at_end)) return Status::OK();
      if (LookingAt("<!DOCTYPE")) {
        // Matching '>' with internal-subset bracket tracking.
        int bracket = 0;
        size_t i = pos_;
        bool found = false;
        for (; i < buf_.size(); ++i) {
          char c = buf_[i];
          if (c == '[') ++bracket;
          if (c == ']') --bracket;
          if (c == '>' && bracket == 0) {
            found = true;
            break;
          }
        }
        if (!found && !at_end) return Status::OK();
        // At end-of-input Scanner's skip loop just consumes everything.
        pos_ = found ? i + 1 : buf_.size();
      }
      stage_ = Stage::kContent;
      continue;
    }

    // Content. Between top-level items ParseDocument skips whitespace;
    // inside the root, whitespace is text.
    if (open_.empty()) SkipWhitespace();
    if (pos_ >= buf_.size()) return Status::OK();

    if (buf_[pos_] != '<') {
      if (open_.empty()) {
        return Fail("text outside the root element");
      }
      size_t lt = buf_.find('<', pos_);
      if (lt == std::string::npos && !at_end) {
        // The text run may continue into the next chunk.
        return Status::OK();
      }
      size_t end = lt == std::string::npos ? buf_.size() : lt;
      std::string_view raw(buf_.data() + pos_, end - pos_);
      std::string decoded;
      Status st = DecodeEntities(raw, &decoded);
      if (!st.ok()) return Fail(st.message());
      out->push_back(Token::Text(std::move(decoded)));
      pos_ = end;
      continue;
    }

    // Markup. Every construct is recognized by an ASCII marker; if the
    // buffer ends inside a marker, wait for the next chunk.
    if (pos_ + 1 >= buf_.size()) {
      if (at_end) return Fail("unterminated markup");
      return Status::OK();
    }
    char c1 = buf_[pos_ + 1];

    if (c1 == '/') {  // end tag
      size_t gt = buf_.find('>', pos_);
      if (gt == std::string::npos) {
        if (at_end) return Fail("malformed end tag");
        return Status::OK();
      }
      size_t i = pos_ + 2;
      if (i >= gt || !IsNameStartChar(buf_[i])) return Fail("expected name");
      size_t s = i;
      while (i < gt && IsNameChar(buf_[i])) ++i;
      std::string name = buf_.substr(s, i - s);
      while (i < gt && IsXmlWhitespace(buf_[i])) ++i;
      if (i != gt) return Fail("malformed end tag");
      if (open_.empty()) {
        return Fail("unexpected end-tag in fragment");
      }
      if (name != open_.back()) {
        return Fail("mismatched end tag </" + name + "> for <" +
                    open_.back() + ">");
      }
      open_.pop_back();
      out->push_back(Token::EndElement());
      pos_ = gt + 1;
      continue;
    }

    if (c1 == '!') {
      if (PrefixPending("<!--", at_end) ||
          PrefixPending("<![CDATA[", at_end)) {
        return Status::OK();
      }
      if (LookingAt("<!--")) {
        size_t end = buf_.find("-->", pos_ + 4);
        if (end == std::string::npos) {
          if (at_end) return Fail("unterminated comment");
          return Status::OK();
        }
        out->push_back(Token::Comment(buf_.substr(pos_ + 4, end - pos_ - 4)));
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        size_t end = buf_.find("]]>", pos_ + 9);
        if (end == std::string::npos) {
          if (at_end) return Fail("unterminated CDATA");
          return Status::OK();
        }
        // CDATA content is literal text, no entity decoding.
        out->push_back(Token::Text(buf_.substr(pos_ + 9, end - pos_ - 9)));
        pos_ = end + 3;
        continue;
      }
      return Fail("unsupported markup declaration");
    }

    if (c1 == '?') {  // processing instruction
      size_t end = buf_.find("?>", pos_ + 2);
      if (end == std::string::npos) {
        if (at_end) return Fail("unterminated PI");
        return Status::OK();
      }
      size_t i = pos_ + 2;
      if (i >= end || !IsNameStartChar(buf_[i])) return Fail("expected name");
      size_t s = i;
      while (i < end && IsNameChar(buf_[i])) ++i;
      std::string target = buf_.substr(s, i - s);
      while (i < end && IsXmlWhitespace(buf_[i])) ++i;
      out->push_back(Token::PI(std::move(target), buf_.substr(i, end - i)));
      pos_ = end + 2;
      continue;
    }

    // Start tag: find the closing '>' outside quoted attribute values.
    size_t i = pos_ + 1;
    char quote = 0;
    size_t gt = std::string::npos;
    for (; i < buf_.size(); ++i) {
      char c = buf_[i];
      if (quote != 0) {
        if (c == quote) quote = 0;
      } else if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '>') {
        gt = i;
        break;
      }
    }
    if (gt == std::string::npos) {
      if (at_end) return Fail("unterminated start tag");
      return Status::OK();
    }
    LAXML_RETURN_IF_ERROR(ParseStartTag(gt, out));
  }
}

Status StreamTokenizer::ParseStartTag(size_t tag_end, TokenSequence* out) {
  // [pos_, tag_end] holds "<name attr='v' ...>" or "<name .../>"; every
  // byte is in the buffer, so this mirrors Scanner::ParseElement's
  // one-pass parse.
  size_t i = pos_ + 1;
  if (i >= tag_end || !IsNameStartChar(buf_[i])) return Fail("expected name");
  size_t s = i;
  while (i < tag_end && IsNameChar(buf_[i])) ++i;
  std::string name = buf_.substr(s, i - s);
  const bool self_closing = buf_[tag_end - 1] == '/';
  const size_t attrs_end = self_closing ? tag_end - 1 : tag_end;
  if (open_.empty()) ++root_elements_;
  out->push_back(Token::BeginElement(name));
  while (true) {
    while (i < attrs_end && IsXmlWhitespace(buf_[i])) ++i;
    if (i >= attrs_end) break;
    if (!IsNameStartChar(buf_[i])) return Fail("expected name");
    s = i;
    while (i < attrs_end && IsNameChar(buf_[i])) ++i;
    std::string attr_name = buf_.substr(s, i - s);
    while (i < attrs_end && IsXmlWhitespace(buf_[i])) ++i;
    if (i >= attrs_end || buf_[i] != '=') {
      return Fail("expected '=' after attribute name");
    }
    ++i;
    while (i < attrs_end && IsXmlWhitespace(buf_[i])) ++i;
    if (i >= attrs_end || (buf_[i] != '"' && buf_[i] != '\'')) {
      return Fail("expected quoted attribute value");
    }
    char quote = buf_[i++];
    s = i;
    while (i < attrs_end && buf_[i] != quote) {
      if (buf_[i] == '<') return Fail("'<' in attribute value");
      ++i;
    }
    if (i >= attrs_end) return Fail("unterminated attribute value");
    std::string attr_value;
    Status st = DecodeEntities(
        std::string_view(buf_.data() + s, i - s), &attr_value);
    if (!st.ok()) return Fail(st.message());
    ++i;  // closing quote
    out->push_back(Token::BeginAttribute(std::move(attr_name),
                                         std::move(attr_value)));
    out->push_back(Token::EndAttribute());
  }
  if (self_closing) {
    out->push_back(Token::EndElement());
  } else {
    open_.push_back(std::move(name));
  }
  pos_ = tag_end + 1;
  return Status::OK();
}

}  // namespace laxml
