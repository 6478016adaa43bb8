#include "xml/serializer.h"

namespace laxml {

std::string EscapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeAttribute(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

/// Writer that tracks whether the current element's start tag is still
/// open (so attributes can be appended and empty elements self-closed).
class Writer {
 public:
  Status Run(const TokenSequence& tokens, std::string* out) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      switch (t.type) {
        case TokenType::kBeginDocument:
        case TokenType::kEndDocument:
        case TokenType::kEndAttribute:
          break;
        case TokenType::kBeginElement:
          CloseStartTag();
          Append("<");
          Append(t.name);
          tag_open_ = true;
          open_names_.push_back(t.name);
          break;
        case TokenType::kEndElement:
          if (open_names_.empty()) {
            return Status::InvalidArgument("END_ELEMENT without begin");
          }
          if (tag_open_) {
            Append("/>");
            tag_open_ = false;
          } else {
            Append("</");
            Append(open_names_.back());
            Append(">");
          }
          open_names_.pop_back();
          break;
        case TokenType::kBeginAttribute:
          if (!tag_open_) {
            return Status::InvalidArgument(
                "attribute token outside an element start tag");
          }
          Append(" ");
          Append(t.name);
          Append("=\"");
          Append(EscapeAttribute(t.value));
          Append("\"");
          break;
        case TokenType::kText:
          CloseStartTag();
          Append(EscapeText(t.value));
          break;
        case TokenType::kComment:
          CloseStartTag();
          Append("<!--");
          Append(t.value);
          Append("-->");
          break;
        case TokenType::kProcessingInstruction:
          CloseStartTag();
          Append("<?");
          Append(t.name);
          if (!t.value.empty()) {
            Append(" ");
            Append(t.value);
          }
          Append("?>");
          break;
      }
    }
    if (!open_names_.empty()) {
      return Status::InvalidArgument("unclosed element at end of sequence");
    }
    *out = std::move(out_);
    return Status::OK();
  }

 private:
  void Append(const std::string& s) { out_ += s; }
  void Append(const char* s) { out_ += s; }

  void CloseStartTag() {
    if (tag_open_) {
      Append(">");
      tag_open_ = false;
    }
  }

  std::string out_;
  std::vector<std::string> open_names_;
  bool tag_open_ = false;
};

}  // namespace

Result<std::string> SerializeTokens(const TokenSequence& tokens) {
  Writer writer;
  std::string out;
  LAXML_RETURN_IF_ERROR(writer.Run(tokens, &out));
  return out;
}

}  // namespace laxml
