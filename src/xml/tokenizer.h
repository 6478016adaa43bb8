// XML text -> token sequence. One from-scratch, non-validating pull
// tokenizer covering the slice of XML the store and benchmarks need:
// elements, attributes, character data with entity references, CDATA
// sections, comments, processing instructions, and the XML declaration.
// DTDs and namespaces-as-semantics are out of scope (prefixes pass
// through as part of names).
//
// StreamTokenizer is the grammar. Text arrives in arbitrary byte chunks
// and tokens come out as soon as their construct is complete, which is
// what lets Store::BulkLoad ingest multi-GB documents without holding
// the text or the token vector: the tokenizer buffers only the one
// incomplete construct at a chunk boundary. Chunk boundaries are
// invisible: feeding a text one byte at a time yields the same tokens
// as feeding it whole, including splits in the middle of multi-byte
// UTF-8 sequences (every delimiter is ASCII, so waiting for the
// delimiter never cuts a code point). ParseDocument and ParseFragment
// feed it a whole text.
//
// It reads one of two inputs:
//   * kDocument: whitespace, an optional XML declaration and an
//     optional DOCTYPE (both skipped), then comments, PIs and exactly
//     one root element. Whitespace between top-level items is dropped
//     and any other top-level text is an error. The tokens are wrapped
//     in BeginDocument/EndDocument.
//   * kFragment: the form update payloads take. Any sequence of
//     elements, text, CDATA, comments and PIs, with no prolog, no
//     wrapper and no root count; top-level text, whitespace included,
//     becomes text tokens.
//
// Malformed input is a ParseError carrying a 1-based line number. The
// error is sticky: after a Feed or Finish fails, every later call
// returns the same error.

#ifndef LAXML_XML_TOKENIZER_H_
#define LAXML_XML_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/token_sequence.h"

namespace laxml {

class StreamTokenizer {
 public:
  enum class Input : uint8_t { kDocument, kFragment };

  explicit StreamTokenizer(Input input = Input::kDocument);

  /// Consumes the next chunk of text, appending every token whose
  /// construct is now complete to `out`.
  Status Feed(std::string_view chunk, TokenSequence* out);

  /// Declares end of input: drains the buffer and verifies the input is
  /// complete (all tags closed; for a document, exactly one root
  /// element, then the trailing EndDocument token).
  Status Finish(TokenSequence* out);

  /// Bytes fed but not yet consumed into tokens (the incomplete tail
  /// construct). Bounded by the largest single construct in the input.
  size_t buffered_bytes() const { return buf_.size(); }

 private:
  /// Document prolog progression; each stage is left at most once. A
  /// fragment starts at kContent.
  enum class Stage : uint8_t { kStart, kDeclaration, kDoctype, kContent };

  /// Tokenizes every complete construct of `in`. Returns the offset of
  /// the first byte not consumed, or kFailed with error_ set. `at_end`
  /// turns "wait for more bytes" into errors (Finish semantics).
  size_t Pump(std::string_view in, bool at_end, TokenSequence* out);

  /// Each construct parser takes `in` at the construct's first byte and
  /// returns the offset one past it, kMore when `in` ends inside it (and
  /// `at_end` is false), or kFailed.
  size_t Prolog(std::string_view in, size_t pos, bool at_end);
  size_t Content(std::string_view in, size_t pos, bool at_end,
                 TokenSequence* out);
  size_t StartTag(std::string_view in, size_t pos, bool at_end,
                  TokenSequence* out);
  size_t EndTag(std::string_view in, size_t pos, bool at_end,
                TokenSequence* out);

  /// Records a ParseError at `in[at]` (with its line number), makes it
  /// sticky, and returns kFailed.
  size_t Fail(std::string_view in, size_t at, const std::string& what);

  const Input input_;
  Stage stage_;
  std::string buf_;  ///< Unconsumed input tail.
  std::string open_names_;           ///< Open element names, concatenated.
  std::vector<size_t> open_starts_;  ///< Offset of each in open_names_.
  size_t root_elements_ = 0;
  uint64_t lines_ = 0;  ///< Newlines in the bytes consumed so far.
  Status error_;        ///< Sticky failure state (OK until the first).
};

/// Parses a complete document (StreamTokenizer::Input::kDocument).
Result<TokenSequence> ParseDocument(std::string_view xml);

/// Parses a fragment (StreamTokenizer::Input::kFragment).
Result<TokenSequence> ParseFragment(std::string_view xml);

}  // namespace laxml

#endif  // LAXML_XML_TOKENIZER_H_
