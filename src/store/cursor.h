// TokenCursor: streaming document-order iteration over the store —
// token by token, with regenerated node ids, nesting depth and each
// token's global ordinal. The query layer evaluates XPath over this
// stream; Table 5's sequential scan measures exactly this path.
//
// Decoding is lazy: Next() reads only a token's header (type, name
// symbol, byte offset), which is all that ids, depth and a symbol-coded
// name test need. The name and value strings are decoded on the first
// token() call for that token, so a scan pays for strings only where it
// looks at them; value_view() reads the value bytes in place, with no
// string at all.
//
// A scan need not start at the first token or visit every one:
// Seek(entry) jumps to a structural-index entry's begin token, SeekTo()
// to any token the store has located, and SkipSubtree() passes over the
// rest of the current scope, reading headers only and passing whole
// ranges on their depth profile alone. The store locates nodes the same
// way (Section 4.3): SeekTo a range's first token and Next() to the id,
// then SkipSubtree() to its end token. Reads that want every token whole
// use Next(Token*) or SkipSubtree(&out), which decode header and strings
// in one pass.
//
// This is the store's main walk over the range chain, bounded like every
// other (a cycle is Corruption), and its only decoder of stored range
// bytes, so token decode is timed and changed
// here alone. It reads through RangeManager::PinSlice and decodes from
// the borrowed buffer-pool frame (an overflow slice that spans pieces is
// copied), holding one pin at most: released when it leaves the range,
// runs off the end or is destroyed. A pinned page cannot be discarded,
// so destroy every cursor before mutating the store (the full-index
// reindex, which walks a range its mutation keeps, is the exception).

#ifndef LAXML_STORE_CURSOR_H_
#define LAXML_STORE_CURSOR_H_

#include <cstdint>
#include <string_view>

#include "common/check.h"
#include "common/status.h"
#include "index/structural_index.h"
#include "obs/request_context.h"
#include "store/range_manager.h"
#include "xml/token.h"
#include "xml/token_codec.h"
#include "xml/token_sequence.h"

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
/// The cursor is invalidated by any store mutation, and its pin must be
/// gone before one (see above). Every token whose header it reads is
/// credited to the request context's `tokens_scanned`; ranges
/// SkipSubtree passes on metadata are not. Store reads walk through a
/// cursor too, so a full Store::Read() credits total_tokens(), and a
/// Read(id) its subtree's tokens (plus a locate scan's headers before).
class TokenCursor {
 public:
  /// SeekTo bounds: a single token (any without a long text or value),
  /// or the rest of the record.
  static constexpr size_t kOneToken = 512;
  static constexpr size_t kToRecordEnd = SIZE_MAX;

  explicit TokenCursor(const RangeManager* ranges) : ranges_(ranges) {}

  /// Positions at the first token of the store; Valid() is false on an
  /// empty store. With `token`, decodes it whole as Next(Token*) does.
  Status SeekToFirst(Token* token = nullptr);

  /// Positions at `entry`'s begin token, with its id, level and pre as
  /// node id, depth and ordinal. Reuses the loaded payload when the
  /// entry lies in the current range. Corruption unless the token at
  /// the entry's (range, offset) has type `begin`: kBeginElement for an
  /// element's entry, kBeginAttribute for an '@name' posting (whose
  /// value rides on that token). With `token`, decodes it whole as
  /// Next(Token*) does.
  Status Seek(const StructuralEntry& entry,
              TokenType begin = TokenType::kBeginElement,
              Token* token = nullptr);

  /// Positions at the token at `pos` — a store location
  /// (`Store::Located`, a Partial Index memo). Global ordinal and depth
  /// are not part of a location, so both count from here: ordinals from
  /// the range's first token (ordinal() == pos.token_index), depth from 0
  /// at this token. With `token`, decodes it whole as Next(Token*) does.
  /// With its codec set, the seek pins `bytes` of the record from
  /// `pos.offset` and reads no range metadata until the cursor leaves
  /// the range (node_id() is unknown until then); a read past them
  /// re-pins once through the record end. Codec 0 (a bare range) reads
  /// the metadata first, as Seek(entry) does.
  Status SeekTo(const TokenPos& pos, Token* token = nullptr,
                size_t bytes = kToRecordEnd);

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
  /// Ordinals, ids and depth stay exact. With `out`, appends every token
  /// through the end token to *out whole, passing no range unread.
  Status SkipSubtree(TokenSequence* out = nullptr);

  /// Type of the current token.
  TokenType type() const { return type_; }

  /// Dictionary symbol of the current token's name when it is
  /// symbol-coded (v2 element/attribute names); kNoNameSymbol otherwise.
  uint32_t name_symbol() const { return name_symbol_; }

  /// Current token. Its name and value are decoded on the first call
  /// per token; this cannot fail, because Next() already validated it.
  const Token& token() const;

  /// The current token's value bytes (text, comment body, attribute
  /// value or PI data), read in place with no string decode. Valid
  /// until the cursor moves.
  std::string_view value_view() const { return reader_.last_value(); }

  /// Regenerated node id (kInvalidNodeId for end tokens). Unknown in
  /// the range a SeekTo with a codec entered (see SeekTo).
  NodeId node_id() const {
    LAXML_DCHECK(meta_read_) << "no start id in range " << meta_.id;
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

  /// Byte offset of the current token within its range's payload (the
  /// coordinate the Partial and Structural indexes memoize).
  uint32_t byte_offset() const { return byte_offset_; }

  /// Encoded length of the current token under its range's codec.
  uint32_t encoded_len() const {
    return base_ + static_cast<uint32_t>(reader_.offset()) - byte_offset_;
  }

  /// Position of the current token. A structural entry carries no
  /// token index, so after Seek(entry) its token_index is exact only
  /// once the cursor has moved into the next range.
  TokenPos pos() const {
    return {meta_.id, byte_offset_,
            static_cast<uint32_t>(ordinal() - range_first_ordinal_),
            static_cast<uint32_t>(next_id_ - meta_.start_id) -
                (TokenBeginsNode(type_) ? 1 : 0),
            meta_.codec};
  }

  /// Token headers SkipSubtree() calls have read (Next() reads one per
  /// call).
  uint64_t skipped_headers() const { return skipped_headers_; }

 private:
  /// Makes `meta`'s range the current one, its whole record pinned.
  Status LoadRange(const RangeMeta& meta);
  /// Puts the reader at `offset` in `range`, loading the range unless
  /// its slice holds `offset`.
  Status SeekReader(RangeId range, uint32_t offset);
  /// Pins `bytes` of the current range's record from `offset`.
  Status Pin(uint32_t offset, size_t bytes);
  void Release();  // drops the slice and its pin
  bool Holds(uint32_t offset) const {
    return offset >= base_ && offset - base_ < slice_.size();
  }
  /// At the end of a bounded slice, re-pins through the record end.
  Status RunOff() {
    return bounded_ ? Pin(base_ + static_cast<uint32_t>(reader_.offset()),
                          kToRecordEnd)
                    : Status::OK();
  }
  /// Releases the slice and returns the next range's id, reading the
  /// current range's metadata if the cursor has not.
  Result<RangeId> LeaveRange();
  /// Metadata of the range a walk steps into next. Corruption once the
  /// walk since the last seek passes more ranges than the store holds
  /// (RangeManager::CountChainVisit): a chain that cycles ends here.
  Result<RangeMeta> StepTo(RangeId next) {
    LAXML_RETURN_IF_ERROR(ranges_->CountChainVisit(&hops_));
    return ranges_->GetMeta(next);
  }
  /// Next() across a range boundary (or to the end).
  Status NextRange(Token* token);
  /// A decode at record offset `at` failed with `st`: on a bounded slice,
  /// re-pins from `at` through the record end and decodes again.
  Status DecodeAgain(uint32_t at, Token* token, TokenType* type, Status st);

  /// Reads the token at the reader's position as the current token: its
  /// header only, or the whole token into *token when one is given.
  Status DecodeOne(Token* token) {
    LAXML_RC_ADD(tokens_scanned, 1);
    byte_offset_ = base_ + static_cast<uint32_t>(reader_.offset());
    Status st = token == nullptr ? reader_.Skip(&type_) : reader_.Next(token);
    if (!st.ok()) st = DecodeAgain(byte_offset_, token, &type_, st);
    if (!st.ok()) return st;
    if (token != nullptr) type_ = token->type;
    name_symbol_ = reader_.last_name_symbol();
    decoded_ = false;
    Count(type_);
    valid_ = true;
    return st;
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
  RecordSlice slice_;  // the pinned (or copied) bytes being decoded
  uint32_t base_ = 0;  // record offset of slice_'s first byte
  bool bounded_ = false;  // slice_ may stop short of the record end
  TokenReader reader_{Slice()};  // over slice_
  NodeId next_id_ = kInvalidNodeId;  // id of the next node-begin token
  uint64_t next_ordinal_ = 0;         // ordinal of the next token
  TokenType type_ = TokenType::kText;
  uint32_t name_symbol_ = kNoNameSymbol;
  mutable Token token_;
  mutable bool decoded_ = false;  // token_ holds the current token
  uint32_t byte_offset_ = 0;
  int64_t depth_ = 0;  // depth after consuming the current token
  RangeMeta meta_;  // of the range being streamed
  bool meta_read_ = false;  // else only its id and codec (next_id_ from 0)
  uint64_t range_first_ordinal_ = 0;  // ordinal of meta_'s first token
  uint64_t skipped_headers_ = 0;
  uint64_t hops_ = 0;  // ranges stepped into since the last seek
};

}  // namespace laxml

#endif  // LAXML_STORE_CURSOR_H_
