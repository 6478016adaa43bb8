#include "store/cursor.h"

#include <string>

#include "common/check.h"

namespace laxml {

Status TokenCursor::LoadRange(const RangeMeta& meta) {
  LAXML_ASSIGN_OR_RETURN(payload_, ranges_->ReadPayload(meta.id));
  meta_ = meta;
  next_id_ = meta.start_id;
  range_first_ordinal_ = next_ordinal_;
  reader_ = TokenReader(Slice(payload_), ranges_->codec_for(meta));
  return Status::OK();
}

Status TokenCursor::SeekReader(RangeId range, uint32_t byte_offset) {
  valid_ = false;
  if (meta_.id != range) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(range));
    LAXML_RETURN_IF_ERROR(LoadRange(meta));
  }
  if (byte_offset >= payload_.size()) {
    return Status::Corruption("seek past the end of range " +
                              std::to_string(range));
  }
  reader_.SeekTo(byte_offset);
  return Status::OK();
}

Status TokenCursor::SeekToFirst(Token* token) {
  valid_ = false;
  depth_ = 0;
  next_ordinal_ = 0;
  RangeId first = ranges_->first_range();
  if (first == kInvalidRangeId) return Status::OK();
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(first));
  LAXML_RETURN_IF_ERROR(LoadRange(meta));
  return Next(token);  // skips leading empty ranges
}

Status TokenCursor::Seek(const StructuralEntry& entry, TokenType begin,
                         Token* token) {
  LAXML_DCHECK(begin == TokenType::kBeginElement ||
               begin == TokenType::kBeginAttribute)
      << "structural entries begin elements and attributes";
  LAXML_RETURN_IF_ERROR(SeekReader(entry.range, entry.offset));
  next_id_ = entry.id;
  next_ordinal_ = entry.pre;
  depth_ = entry.level;
  LAXML_RETURN_IF_ERROR(DecodeOne(token));
  if (type_ != begin) {
    valid_ = false;
    return Status::Corruption(
        "seek target at range " + std::to_string(entry.range) + " offset " +
        std::to_string(entry.offset) + " is not a " +
        (begin == TokenType::kBeginElement ? "begin-element"
                                           : "begin-attribute"));
  }
  return Status::OK();
}

Status TokenCursor::SeekTo(const TokenPos& pos) {
  LAXML_RETURN_IF_ERROR(SeekReader(pos.range, pos.offset));
  next_id_ = meta_.start_id + pos.begins_before;
  range_first_ordinal_ = 0;
  next_ordinal_ = pos.token_index;
  depth_ = 0;
  return DecodeOne(nullptr);
}

const Token& TokenCursor::token() const {
  if (!decoded_) {
    // reader_ still reads the current token's range: Next() loads the
    // following range only when it advances.
    TokenReader reader = reader_;
    reader.SeekTo(byte_offset_);
    Status st = reader.Next(&token_);
    LAXML_CHECK(st.ok()) << "token at range " << meta_.id << " offset "
                         << byte_offset_ << " passed Skip but not Next: "
                         << st.ToString();
    decoded_ = true;
  }
  return token_;
}

Status TokenCursor::NextRange(Token* token) {
  while (reader_.AtEnd()) {
    if (meta_.next == kInvalidRangeId) {
      valid_ = false;
      return Status::OK();
    }
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(meta_.next));
    LAXML_RETURN_IF_ERROR(LoadRange(meta));
  }
  return DecodeOne(token);
}

Status TokenCursor::SkipSubtree() {
  LAXML_DCHECK(valid_ && TokenOpensScope(type_))
      << "SkipSubtree needs a scope-opening token";
  const int64_t end_depth = depth();
  uint64_t scanned = 0;
  size_t offset = 0;
  TokenType type = type_;
  while (depth_ > end_depth) {
    while (reader_.AtEnd()) {
      // Depth-profile skip: a range whose lowest running depth stays
      // above the end token's cannot hold it, so its metadata alone
      // advances depth and ordinals — no payload read, no header
      // decoded. This keeps insertIntoLast(root) cheap on a store of
      // thousands of ranges. Ids need no count: each loaded range
      // restarts them from its start_id.
      RangeId next = meta_.next;
      while (true) {
        if (next == kInvalidRangeId) {
          valid_ = false;
          return Status::Corruption("subtree never closes");
        }
        LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(next));
        if (depth_ - end_depth + meta.min_depth <= 0) {
          LAXML_RETURN_IF_ERROR(LoadRange(meta));
          break;
        }
        depth_ += meta.depth_delta;
        next_ordinal_ += meta.token_count;
        next = meta.next;
      }
    }
    offset = reader_.offset();
    LAXML_RETURN_IF_ERROR(reader_.Skip(&type));
    ++scanned;
    Count(type);
  }
  LAXML_RC_ADD(tokens_scanned, scanned);
  skipped_headers_ += scanned;
  // The cursor now stands on the matching end token.
  type_ = type;
  name_symbol_ = kNoNameSymbol;
  decoded_ = false;
  byte_offset_ = static_cast<uint32_t>(offset);
  return Status::OK();
}

}  // namespace laxml
