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
// Seek(entry) jumps to a structural-index entry's begin token, SeekTo()
// to any token the store has located, and SkipSubtree() passes over the
// rest of the current scope, reading headers only and passing whole
// ranges on their depth profile alone. The store locates nodes the same
// way (Section 4.3): SeekTo a range's first token and Next() to the id,
// then SkipSubtree() to its end token. Reads that want every token whole
// (Store::Read, Read(id)'s subtree) use Next(Token*), which decodes
// header and strings in one pass. This is the only walk over the range
// chain.

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
/// Store reads walk through a cursor too, so a full Store::Read()
/// credits total_tokens(), and a Read(id) without a memoized extent
/// credits its subtree's tokens (plus its locate scan's headers).
class TokenCursor {
 public:
  explicit TokenCursor(const RangeManager* ranges) : ranges_(ranges) {}

  /// Positions at the first token of the store; Valid() is false on an
  /// empty store. With `token`, decodes it whole as Next(Token*) does.
  Status SeekToFirst(Token* token = nullptr);

  /// Positions at `entry`'s begin token, with its id, level and pre as
  /// node id, depth and ordinal. Reuses the loaded payload when the
  /// entry lies in the current range. Corruption unless the token at
  /// the entry's (range, offset) is a begin-element.
  Status Seek(const StructuralEntry& entry);

  /// Positions at the token at `byte_offset` in `range`: the range's
  /// `token_index`-th token, with `begins_before` node-begin tokens
  /// before it in the range — the coordinates of a store location
  /// (`Store::Located`, a Partial Index memo). Global ordinal and depth
  /// are not part of a location, so both count from here: ordinals from
  /// the range's first token (ordinal() == token_index), depth from 0
  /// at this token.
  Status SeekTo(RangeId range, uint32_t byte_offset, uint32_t token_index,
                uint32_t begins_before);

  bool Valid() const { return valid_; }

  /// Advances to the next token (crossing range boundaries as needed).
  /// Decodes the header only; every corruption check runs here.
  Status Next() {
    return reader_.AtEnd() ? NextRange(nullptr) : DecodeOne(nullptr);
  }

  /// Next(), decoding the new token whole into *token in the same pass
  /// (token() would decode it a second time). *token is unspecified
  /// once Valid() turns false.
  Status Next(Token* token) {
    return reader_.AtEnd() ? NextRange(token) : DecodeOne(token);
  }

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
  NodeId node_id() const {
    return TokenBeginsNode(type_) ? next_id_ - 1 : kInvalidNodeId;
  }

  /// Nesting depth of the current token (the depth *at* the token: a
  /// begin-element at top level has depth 0, its children depth 1).
  int64_t depth() const {
    return TokenOpensScope(type_) ? depth_ - 1 : depth_;
  }

  /// Global index of the current token in the store's token stream (the
  /// structural index's pre/post numbering).
  uint64_t ordinal() const { return next_ordinal_ - 1; }

  /// Range currently being streamed.
  RangeId range() const { return meta_.id; }

  /// Codec version of the current range's payload.
  uint8_t codec() const { return meta_.codec; }

  /// Byte offset of the current token within its range's payload (the
  /// coordinate the Partial and Structural indexes memoize).
  uint32_t byte_offset() const { return byte_offset_; }

  /// Encoded length of the current token under its range's codec.
  uint32_t encoded_len() const {
    return static_cast<uint32_t>(reader_.offset()) - byte_offset_;
  }

  /// Index of the current token within its range. A structural entry
  /// carries no such index, so after Seek(entry) it is exact only once
  /// the cursor has moved into the next range.
  uint32_t token_index() const {
    return static_cast<uint32_t>(ordinal() - range_first_ordinal_);
  }

  /// Node-begin tokens in the current range before the current token.
  uint32_t begins_before() const {
    return static_cast<uint32_t>(next_id_ - meta_.start_id) -
           (TokenBeginsNode(type_) ? 1 : 0);
  }

  /// Token headers SkipSubtree() calls have read (Next() reads one per
  /// call).
  uint64_t skipped_headers() const { return skipped_headers_; }

 private:
  Status LoadRange(const RangeMeta& meta);
  /// Loads `range` unless it is the current one and puts the reader at
  /// `byte_offset`, which must lie inside its payload.
  Status SeekReader(RangeId range, uint32_t byte_offset);
  /// Next() across a range boundary (or to the end).
  Status NextRange(Token* token);

  /// Reads the token at the reader's position as the current token: its
  /// header only, or the whole token into *token when one is given.
  Status DecodeOne(Token* token) {
    LAXML_RC_ADD(tokens_scanned, 1);
    byte_offset_ = static_cast<uint32_t>(reader_.offset());
    if (token == nullptr) {
      LAXML_RETURN_IF_ERROR(reader_.Skip(&type_));
    } else {
      LAXML_RETURN_IF_ERROR(reader_.Next(token));
      type_ = token->type;
    }
    name_symbol_ = reader_.last_name_symbol();
    decoded_ = false;
    Count(type_);
    valid_ = true;
    return Status::OK();
  }

  /// Moves ordinal, id and depth past a token of `type`. The current
  /// token's ordinal, id and depth derive from these counters, so this
  /// is all the per-token bookkeeping there is.
  void Count(TokenType type) {
    ++next_ordinal_;
    if (TokenBeginsNode(type)) ++next_id_;
    if (TokenOpensScope(type)) {
      ++depth_;
    } else if (TokenClosesScope(type)) {
      --depth_;
    }
  }

  const RangeManager* ranges_;
  bool valid_ = false;
  std::vector<uint8_t> payload_;
  TokenReader reader_{Slice()};
  NodeId next_id_ = kInvalidNodeId;  // id of the next node-begin token
  uint64_t next_ordinal_ = 0;         // ordinal of the next token
  TokenType type_ = TokenType::kText;
  uint32_t name_symbol_ = kNoNameSymbol;
  mutable Token token_;
  mutable bool decoded_ = false;  // token_ holds the current token
  uint32_t byte_offset_ = 0;
  int64_t depth_ = 0;  // depth after consuming the current token
  RangeMeta meta_;  // of the range being streamed
  uint64_t range_first_ordinal_ = 0;  // ordinal of meta_'s first token
  uint64_t skipped_headers_ = 0;
};

}  // namespace laxml

#endif  // LAXML_STORE_CURSOR_H_
