// Incremental XML tokenizer: the document arrives in arbitrary byte
// chunks and tokens come out as soon as their construct is complete.
// This is what lets Store::BulkLoad ingest multi-GB documents without
// ever materializing the text or the token vector — peak memory is the
// largest single construct (one tag, one text run, one comment), not
// the document.
//
// Semantics match ParseDocument (tokenizer.h) exactly on valid input:
// same prolog handling (XML declaration and DOCTYPE skipped), same
// entity decoding (shared xmldetail helpers), and the
// emitted token sequence — including the BeginDocument/EndDocument
// wrapper and the exactly-one-root-element rule — is byte-identical
// under EncodeTokens. Chunk boundaries are invisible: feeding a
// document one byte at a time yields the same tokens as feeding it
// whole, including splits in the middle of multi-byte UTF-8 sequences
// (every construct delimiter is ASCII, so buffering until the
// delimiter arrives never cuts a code point).
//
// Error behavior is sticky: after a Feed or Finish fails, every later
// call returns the same error.

#ifndef LAXML_XML_STREAM_LOADER_H_
#define LAXML_XML_STREAM_LOADER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/token_sequence.h"

namespace laxml {

class StreamTokenizer {
 public:
  /// Consumes the next chunk of document text, appending every token
  /// whose construct is now complete to `out`. The first call also
  /// emits the leading BeginDocument token.
  Status Feed(std::string_view chunk, TokenSequence* out);

  /// Declares end-of-input: drains the buffer, verifies the document
  /// is complete (all tags closed, exactly one root element), and
  /// emits the trailing EndDocument token.
  Status Finish(TokenSequence* out);

  /// Bytes fed but not yet consumed into tokens (the incomplete tail
  /// construct). Bounded by the largest single construct in the input.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// Total bytes accepted by Feed.
  uint64_t consumed_bytes() const { return fed_bytes_; }

  /// Open-element nesting depth of the scan position.
  size_t depth() const { return open_.size(); }

 private:
  /// Prolog / body progression; each stage is left at most once.
  enum class Stage : uint8_t {
    kLeadingWs,   ///< Before the (optional) XML declaration.
    kAfterDecl,   ///< Before the (optional) DOCTYPE.
    kContent,     ///< Document content (top level or inside the root).
  };

  /// Drains every complete construct from the buffer. `at_end` turns
  /// "wait for more bytes" into hard errors (Finish semantics).
  Status Pump(bool at_end, TokenSequence* out);

  Status ParseStartTag(size_t tag_end, TokenSequence* out);

  /// ParseError with a 1-based line number, and makes the error sticky.
  Status Fail(const std::string& what);

  bool LookingAt(std::string_view marker) const;
  /// True when the buffer tail is a proper prefix of `marker` — the
  /// next chunk could still complete it, so the caller must wait.
  bool PrefixPending(std::string_view marker, bool at_end) const;
  void SkipWhitespace();
  void Compact();

  std::string buf_;   ///< Unconsumed input tail.
  size_t pos_ = 0;    ///< Scan cursor within buf_.
  Stage stage_ = Stage::kLeadingWs;
  std::vector<std::string> open_;  ///< Open element names (nesting).
  bool began_document_ = false;
  size_t root_elements_ = 0;
  uint64_t fed_bytes_ = 0;
  uint64_t lines_consumed_ = 0;  ///< Newlines in bytes erased by Compact.
  Status error_;  ///< Sticky failure state (OK until the first error).
  bool failed_ = false;
};

}  // namespace laxml

#endif  // LAXML_XML_STREAM_LOADER_H_
