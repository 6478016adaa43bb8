// TokenCursor: streaming document-order iteration over the store —
// token by token, with regenerated node ids, nesting depth and each
// token's global ordinal. The query layer evaluates XPath over this
// stream; Table 5's sequential scan measures exactly this path.
//
// Decoding is lazy: Next() reads only a token's header (type, name
// symbol, byte offset), which is all that ids, depth and a symbol-coded
// name test need. The name and value strings are decoded on the first
// token() call for that token, so a scan pays for strings only where it
// looks at them.
//
// A scan need not start at the first token or visit every one:
// Seek(entry) jumps to a structural-index entry's begin token, and
// SkipSubtree() passes over the rest of the current element, reading
// headers only and passing whole ranges on their depth profile alone.

#ifndef LAXML_STORE_CURSOR_H_
#define LAXML_STORE_CURSOR_H_

#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "obs/request_context.h"
#include "store/range_manager.h"
#include "xml/token.h"
#include "xml/token_codec.h"

namespace laxml {

/// Forward-only cursor over tokens in document order.
///
/// Usage:
///   auto cursor = store->NewCursor();
///   LAXML_RETURN_IF_ERROR(cursor->SeekToFirst());
///   while (cursor->Valid()) {
///     use(cursor->type(), cursor->node_id(), cursor->depth());
///     LAXML_RETURN_IF_ERROR(cursor->Next());
///   }
///
/// The cursor is invalidated by any store mutation. Every token whose
/// header it reads is credited to the request context's
/// `tokens_scanned`; ranges SkipSubtree passes on metadata are not.
class TokenCursor {
 public:
  explicit TokenCursor(const RangeManager* ranges) : ranges_(ranges) {}

  /// Positions at the first token of the store; Valid() is false on an
  /// empty store.
  Status SeekToFirst();

  /// Positions at `entry`'s begin token, with its id, level and pre as
  /// node id, depth and ordinal. Reuses the loaded payload when the
  /// entry lies in the current range. Corruption unless the token at
  /// the entry's (range, offset) is a begin-element.
  Status Seek(const StructuralEntry& entry);

  bool Valid() const { return valid_; }

  /// Advances to the next token (crossing range boundaries as needed).
  /// Decodes the header only; every corruption check runs here.
  Status Next() { return reader_.AtEnd() ? NextRange() : DecodeOne(); }

  /// From a token that opens a scope, advances to its matching end
  /// token, reading headers only. Ranges the end token cannot be in
  /// (by their depth profile) are passed without reading their payload.
  /// Ordinals, ids and depth stay exact.
  Status SkipSubtree();

  /// Type of the current token.
  TokenType type() const { return type_; }

  /// Dictionary symbol of the current token's name when it is
  /// symbol-coded (v2 element/attribute names); kNoNameSymbol otherwise.
  uint32_t name_symbol() const { return name_symbol_; }

  /// Current token. Its name and value are decoded on the first call
  /// per token; this cannot fail, because Next() already validated it.
  const Token& token() const;

  /// Regenerated node id (kInvalidNodeId for end tokens).
  NodeId node_id() const { return node_id_; }

  /// Nesting depth of the current token (the depth *at* the token: a
  /// begin-element at top level has depth 0, its children depth 1).
  int64_t depth() const { return depth_at_token_; }

  /// Global index of the current token in the store's token stream (the
  /// structural index's pre/post numbering).
  uint64_t ordinal() const { return ordinal_; }

  /// Range currently being streamed.
  RangeId range() const { return range_; }

  /// Byte offset of the current token within its range's payload (the
  /// coordinate the Partial and Structural indexes memoize).
  uint32_t byte_offset() const { return byte_offset_; }

 private:
  Status LoadRange(const RangeMeta& meta);
  /// Next() across a range boundary (or to the end).
  Status NextRange();

  /// Reads the header at the reader's position as the current token.
  Status DecodeOne() {
    LAXML_RC_ADD(tokens_scanned, 1);
    byte_offset_ = static_cast<uint32_t>(reader_.offset());
    LAXML_RETURN_IF_ERROR(reader_.Skip(&type_));
    name_symbol_ = reader_.last_name_symbol();
    decoded_ = false;
    ordinal_ = next_ordinal_++;
    node_id_ = TokenBeginsNode(type_) ? next_id_++ : kInvalidNodeId;
    if (TokenClosesScope(type_)) {
      --depth_;
      depth_at_token_ = depth_;
    } else {
      depth_at_token_ = depth_;
      if (TokenOpensScope(type_)) ++depth_;
    }
    valid_ = true;
    return Status::OK();
  }

  const RangeManager* ranges_;
  bool valid_ = false;
  RangeId range_ = kInvalidRangeId;
  std::vector<uint8_t> payload_;
  TokenReader reader_{Slice()};
  RangeId next_range_ = kInvalidRangeId;
  NodeId next_id_ = kInvalidNodeId;
  uint64_t next_ordinal_ = 0;
  TokenType type_ = TokenType::kText;
  uint32_t name_symbol_ = kNoNameSymbol;
  mutable Token token_;
  mutable bool decoded_ = false;  // token_ holds the current token
  NodeId node_id_ = kInvalidNodeId;
  uint64_t ordinal_ = 0;
  uint32_t byte_offset_ = 0;
  int64_t depth_ = 0;           // depth after consuming the token
  int64_t depth_at_token_ = 0;  // depth at the token
};

}  // namespace laxml

#endif  // LAXML_STORE_CURSOR_H_
