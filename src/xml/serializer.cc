#include "xml/serializer.h"

namespace laxml {

Status XmlWriter::Add(const Token& t) {
  switch (t.type) {
    case TokenType::kBeginDocument:
    case TokenType::kEndDocument:
    case TokenType::kEndAttribute:
      break;
    case TokenType::kBeginElement:
      CloseStartTag();
      out_ += '<';
      out_ += t.name;
      tag_open_ = true;
      open_names_.push_back(t.name);
      break;
    case TokenType::kEndElement:
      if (open_names_.empty()) {
        return Status::InvalidArgument("END_ELEMENT without begin");
      }
      if (tag_open_) {
        out_ += "/>";
        tag_open_ = false;
      } else {
        out_ += "</";
        out_ += open_names_.back();
        out_ += '>';
      }
      open_names_.pop_back();
      break;
    case TokenType::kBeginAttribute:
      if (!tag_open_) {
        return Status::InvalidArgument(
            "attribute token outside an element start tag");
      }
      out_ += ' ';
      out_ += t.name;
      out_ += "=\"";
      AppendEscaped(t.value, /*attribute=*/true);
      out_ += '"';
      break;
    case TokenType::kText:
      CloseStartTag();
      AppendEscaped(t.value, /*attribute=*/false);
      break;
    case TokenType::kComment:
      CloseStartTag();
      out_ += "<!--";
      out_ += t.value;
      out_ += "-->";
      break;
    case TokenType::kProcessingInstruction:
      CloseStartTag();
      out_ += "<?";
      out_ += t.name;
      if (!t.value.empty()) {
        out_ += ' ';
        out_ += t.value;
      }
      out_ += "?>";
      break;
  }
  return Status::OK();
}

Result<std::string> XmlWriter::Finish() {
  if (!open_names_.empty()) {
    return Status::InvalidArgument("unclosed element at end of sequence");
  }
  return std::move(out_);
}

void XmlWriter::CloseStartTag() {
  if (tag_open_) {
    out_ += '>';
    tag_open_ = false;
  }
}

// Character data escapes & < >; attribute values also escape ".
void XmlWriter::AppendEscaped(std::string_view text, bool attribute) {
  size_t run = 0;  // first byte not yet appended
  for (size_t i = 0; i < text.size(); ++i) {
    const char* entity = nullptr;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        if (attribute) entity = "&quot;";
        break;
      default:
        break;
    }
    if (entity == nullptr) continue;
    out_.append(text.data() + run, i - run);
    out_ += entity;
    run = i + 1;
  }
  out_.append(text.data() + run, text.size() - run);
}

Result<std::string> SerializeTokens(const TokenSequence& tokens) {
  XmlWriter writer;
  for (const Token& t : tokens) LAXML_RETURN_IF_ERROR(writer.Add(t));
  return writer.Finish();
}

}  // namespace laxml
