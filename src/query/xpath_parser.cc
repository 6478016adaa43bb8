#include "query/xpath_parser.h"

#include <algorithm>
#include <string>

namespace laxml {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || IsDigit(c) || c == '-' || c == '.';
}

/// One recursive-descent pass over the expression: each rule reads its
/// tokens straight from the text and builds its AST node in place.
/// Blanks (space, tab, newline) may separate any two tokens; a name and
/// the "()" of a kind test may not be split.
class Parser {
 public:
  explicit Parser(std::string_view expr) : expr_(expr) {}

  Status ParsePath(XPathPath* path, bool top_level) {
    XPathAxis next_axis = XPathAxis::kChild;
    if (Take("//")) {
      path->absolute = true;
      next_axis = XPathAxis::kDescendant;
    } else if (Take("/")) {
      path->absolute = true;
    }
    while (true) {
      LAXML_RETURN_IF_ERROR(ParseStep(next_axis, &path->steps.emplace_back()));
      if (Take("//")) {
        next_axis = XPathAxis::kDescendant;
      } else if (Take("/")) {
        next_axis = XPathAxis::kChild;
      } else {
        break;
      }
    }
    if (top_level && !AtEnd()) {
      return Status::ParseError("trailing tokens after XPath expression");
    }
    return Status::OK();
  }

  /// The steps to reserve for the query path: one more than the
  /// expression's slashes, at most kMaxStreamSteps.
  size_t StepsToReserve() const {
    size_t n = 1;
    for (char c : expr_) n += c == '/' ? 1 : 0;
    return std::min(n, kMaxStreamSteps);
  }

 private:
  void SkipBlanks() {
    while (pos_ < expr_.size() &&
           (expr_[pos_] == ' ' || expr_[pos_] == '\t' || expr_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipBlanks();
    return pos_ == expr_.size();
  }

  /// The next character, past blanks; '\0' at the end (an embedded NUL
  /// starts no token either).
  char Peek() {
    SkipBlanks();
    return pos_ < expr_.size() ? expr_[pos_] : '\0';
  }

  /// Consumes `token` when it comes next, past blanks.
  bool Take(std::string_view token) {
    SkipBlanks();
    if (expr_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Status ParseStep(XPathAxis axis, XPathStep* step) {
    step->axis = axis;
    if (Take("@")) {
      // '//@id' = any attribute named id anywhere; modeled as an
      // attribute step on every descendant element.
      step->axis = XPathAxis::kAttribute;
      step->descendant_attr = axis == XPathAxis::kDescendant;
    }
    const char c = Peek();
    if (c == '*') {
      step->test = NodeTestKind::kWildcard;
      ++pos_;
    } else if (IsNameStart(c)) {
      const size_t start = pos_;
      while (pos_ < expr_.size() && IsNameChar(expr_[pos_])) ++pos_;
      const std::string_view name = expr_.substr(start, pos_ - start);
      if (expr_.substr(pos_, 2) == "()") {
        // A kind test.
        if (name == "text") {
          step->test = NodeTestKind::kText;
        } else if (name == "comment") {
          step->test = NodeTestKind::kComment;
        } else if (name == "node") {
          step->test = NodeTestKind::kAnyNode;
        } else {
          return Status::ParseError("unknown kind test '" +
                                    std::string(name) + "()'");
        }
        pos_ += 2;
      } else {
        step->test = NodeTestKind::kName;
        step->name.assign(name.data(), name.size());
      }
    } else {
      return Status::ParseError("expected node test in XPath step");
    }
    while (Take("[")) {
      LAXML_RETURN_IF_ERROR(ParsePredicate(&step->predicates.emplace_back()));
      if (!Take("]")) return Status::ParseError("expected ']' after predicate");
    }
    return Status::OK();
  }

  Status ParsePredicate(XPathPredicate* pred) {
    if (IsDigit(Peek())) {
      pred->kind = XPathPredicate::Kind::kPosition;
      LAXML_RETURN_IF_ERROR(ParseInteger(&pred->position));
      if (pred->position == 0) {
        return Status::ParseError("positions are 1-based in XPath");
      }
      return Status::OK();
    }
    // The engine refuses a path of more steps anyway, and the bound
    // keeps both this recursion and the AST's destructor shallow.
    if (++depth_ > kMaxStreamSteps) {
      return Status::ParseError("XPath predicates nested more than " +
                                std::to_string(kMaxStreamSteps) + " deep");
    }
    LAXML_RETURN_IF_ERROR(ParsePath(&pred->path, /*top_level=*/false));
    --depth_;
    if (pred->path.absolute) {
      return Status::ParseError("predicate paths must be relative");
    }
    if (!Take("=")) {
      pred->kind = XPathPredicate::Kind::kExists;
      return Status::OK();
    }
    pred->kind = XPathPredicate::Kind::kEquals;
    const char c = Peek();
    if (c == '\'' || c == '"') {
      const size_t end = expr_.find(c, pos_ + 1);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated string literal in XPath");
      }
      pred->literal.assign(expr_.data() + pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
      return Status::OK();
    }
    if (!IsDigit(c)) return Status::ParseError("expected literal after '='");
    uint64_t number = 0;
    LAXML_RETURN_IF_ERROR(ParseInteger(&number));
    pred->literal = std::to_string(number);
    return Status::OK();
  }

  /// The digits at the cursor, which must fit 64 bits.
  Status ParseInteger(uint64_t* out) {
    uint64_t v = 0;
    for (; pos_ < expr_.size() && IsDigit(expr_[pos_]); ++pos_) {
      const uint64_t digit = static_cast<uint64_t>(expr_[pos_] - '0');
      if (v > (UINT64_MAX - digit) / 10) {
        return Status::ParseError("integer too large in XPath");
      }
      v = v * 10 + digit;
    }
    *out = v;
    return Status::OK();
  }

  std::string_view expr_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< Predicate paths open around the cursor.
};

}  // namespace

Result<XPathPath> ParseXPath(std::string_view expr) {
  Parser parser(expr);
  XPathPath path;
  path.steps.reserve(parser.StepsToReserve());
  LAXML_RETURN_IF_ERROR(parser.ParsePath(&path, /*top_level=*/true));
  return path;
}

}  // namespace laxml
