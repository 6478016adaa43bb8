// The token model: an XML instance is a flat sequence of tokens —
// "materialized enriched SAX events" (paper Section 3.2, after the
// BEA/XQRL streaming processor's representation). Tokens are the most
// granular unit of the store; every coarser unit (node, Range, document)
// is a token sequence.
//
// Vocabulary (paper Figure 1):
//   BEGIN_DOCUMENT / END_DOCUMENT
//   BEGIN_ELEMENT(name) / END_ELEMENT
//   BEGIN_ATTRIBUTE(name, value) / END_ATTRIBUTE   — attributes are
//     separated from their element and given their own begin/end tokens;
//     the value rides on the begin token so that no spurious text *node*
//     appears inside the attribute.
//   TEXT(value), COMMENT(value), PI(target, data)  — single tokens.
//
// Node identity (XQuery Data Model): every token that *begins a node*
// consumes one NodeId at insert time — BeginDocument, BeginElement,
// BeginAttribute, Text, Comment, PI. End tokens carry no id. Ids are NOT
// stored with tokens; they are regenerated by sequential scan from a
// Range's start id (paper Section 4.3).

#ifndef LAXML_XML_TOKEN_H_
#define LAXML_XML_TOKEN_H_

#include <cstdint>
#include <string>
#include <utility>

namespace laxml {

/// Identifier of a node in the XQuery Data Model sense. Assigned
/// monotonically at insert time; stable (never reassigned or reused).
using NodeId = uint64_t;
inline constexpr NodeId kInvalidNodeId = 0;

/// PSVI type annotation (index into a Schema's type table; 0 = untyped).
using TypeAnnotation = uint32_t;
inline constexpr TypeAnnotation kUntypedAnnotation = 0;

/// Token kinds. Values are part of the on-disk format — append only.
enum class TokenType : uint8_t {
  kBeginDocument = 0,
  kEndDocument = 1,
  kBeginElement = 2,
  kEndElement = 3,
  kBeginAttribute = 4,
  kEndAttribute = 5,
  kText = 6,
  kComment = 7,
  kProcessingInstruction = 8,
};

/// Human-readable token-type name ("BEGIN_ELEMENT", ...).
const char* TokenTypeName(TokenType type);

/// True when a token of this type begins a node and therefore consumes
/// a NodeId (every type except the three end tokens).
inline bool TokenBeginsNode(TokenType type) {
  return type != TokenType::kEndDocument && type != TokenType::kEndElement &&
         type != TokenType::kEndAttribute;
}

/// True for token types that open a nesting level (have a matching end).
inline bool TokenOpensScope(TokenType type) {
  return type == TokenType::kBeginDocument ||
         type == TokenType::kBeginElement ||
         type == TokenType::kBeginAttribute;
}

/// True for token types that close a nesting level.
inline bool TokenClosesScope(TokenType type) {
  return type == TokenType::kEndDocument || type == TokenType::kEndElement ||
         type == TokenType::kEndAttribute;
}

/// One token of the flat XML representation.
struct Token {
  TokenType type = TokenType::kText;
  /// PSVI type annotation assigned by schema validation (Section 2
  /// requirement 7). 0 when untyped.
  TypeAnnotation psvi_type = kUntypedAnnotation;
  /// Element/attribute name or PI target; empty otherwise. (The
  /// empty initializers let the factories' designated initializers
  /// leave a string out without a -Wmissing-field-initializers warning.)
  std::string name{};
  /// Text content, comment body, attribute value, or PI data.
  std::string value{};

  /// @name Factories
  /// @{
  static Token BeginDocument() { return {.type = TokenType::kBeginDocument}; }
  static Token EndDocument() { return {.type = TokenType::kEndDocument}; }
  static Token BeginElement(std::string name) {
    return {.type = TokenType::kBeginElement, .name = std::move(name)};
  }
  static Token EndElement() { return {.type = TokenType::kEndElement}; }
  static Token BeginAttribute(std::string name, std::string value) {
    return {.type = TokenType::kBeginAttribute,
            .name = std::move(name),
            .value = std::move(value)};
  }
  static Token EndAttribute() { return {.type = TokenType::kEndAttribute}; }
  static Token Text(std::string value) {
    return {.type = TokenType::kText, .value = std::move(value)};
  }
  static Token Comment(std::string value) {
    return {.type = TokenType::kComment, .value = std::move(value)};
  }
  static Token PI(std::string target, std::string data) {
    return {.type = TokenType::kProcessingInstruction,
            .name = std::move(target),
            .value = std::move(data)};
  }
  /// @}

  /// True when this token begins a node and therefore consumes a NodeId.
  bool BeginsNode() const { return TokenBeginsNode(type); }

  /// True for tokens that open a nesting level (have a matching end).
  bool OpensScope() const { return TokenOpensScope(type); }

  /// True when the node this token begins may contain child content
  /// (elements and documents; attribute scopes must stay empty).
  bool CanHaveChildren() const {
    return type == TokenType::kBeginDocument ||
           type == TokenType::kBeginElement;
  }

  /// True for tokens that close a nesting level.
  bool ClosesScope() const { return TokenClosesScope(type); }

  bool operator==(const Token& other) const {
    return type == other.type && name == other.name &&
           value == other.value && psvi_type == other.psvi_type;
  }
  bool operator!=(const Token& other) const { return !(*this == other); }

  /// Debug rendering, e.g. `[BEGIN_ELEMENT ticket]`.
  std::string ToString() const;
};

// Type and annotation share one word: a whole-store read fills a slot
// per token, so every byte here is a byte of every scan's output.
static_assert(sizeof(Token) == 8 + 2 * sizeof(std::string));

}  // namespace laxml

#endif  // LAXML_XML_TOKEN_H_
