#include "store/cursor.h"

#include <string>

namespace laxml {

void TokenCursor::Release() {
  reader_ = TokenReader(Slice());
  slice_ = RecordSlice();
  bounded_ = false;
}

Status TokenCursor::Pin(uint32_t offset, size_t bytes) {
  if (slice_.borrowed()) Release();  // one pin at a time
  LAXML_ASSIGN_OR_RETURN(
      slice_, ranges_->PinSlice(meta_.id, offset, bytes));
  base_ = offset;
  bounded_ = bytes != kToRecordEnd && slice_.size() == bytes;
  reader_ = TokenReader(slice_.bytes(), ranges_->codec_for(meta_));
  return Status::OK();
}

Status TokenCursor::LoadRange(const RangeMeta& meta) {
  meta_ = meta;
  meta_read_ = true;
  next_id_ = meta.start_id;
  range_first_ordinal_ = next_ordinal_;
  return Pin(0, kToRecordEnd);
}

Status TokenCursor::SeekReader(RangeId range, uint32_t offset) {
  valid_ = false;
  if (meta_.id != range || !meta_read_) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(range));
    LAXML_RETURN_IF_ERROR(LoadRange(meta));
  } else if (!Holds(offset)) {
    LAXML_RETURN_IF_ERROR(Pin(0, kToRecordEnd));
  }
  if (!Holds(offset)) {
    return Status::Corruption("seek past the end of range " +
                              std::to_string(range));
  }
  reader_.SeekTo(offset - base_);
  return Status::OK();
}

Status TokenCursor::SeekToFirst(Token* token) {
  valid_ = false;
  depth_ = 0;
  next_ordinal_ = 0;
  hops_ = 0;
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
  hops_ = 0;
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

Status TokenCursor::SeekTo(const TokenPos& pos, Token* token, size_t bytes) {
  hops_ = 0;
  if (pos.codec == 0) {
    LAXML_RETURN_IF_ERROR(SeekReader(pos.range, pos.offset));
  } else {
    // The slice starts at the token. PinSlice returns nothing at or past
    // the record end, so an offset beyond the range fails to decode as
    // Corruption with no metadata probe.
    valid_ = false;
    meta_ = {.id = pos.range, .codec = pos.codec};
    meta_read_ = false;
    LAXML_RETURN_IF_ERROR(Pin(pos.offset, bytes));
  }
  next_id_ = meta_.start_id + pos.begins_before;
  range_first_ordinal_ = 0;
  next_ordinal_ = pos.token_index;
  depth_ = 0;
  return DecodeOne(token);
}

Status TokenCursor::DecodeAgain(uint32_t at, Token* token, TokenType* type,
                                Status st) {
  if (!bounded_) return st;
  LAXML_RETURN_IF_ERROR(Pin(at, kToRecordEnd));
  return token == nullptr ? reader_.Skip(type) : reader_.Next(token);
}

const Token& TokenCursor::token() const {
  if (!decoded_) {
    // reader_ still reads the current token's slice: Next() pins the
    // following bytes only when it advances.
    TokenReader reader = reader_;
    reader.SeekTo(byte_offset_ - base_);
    Status st = reader.Next(&token_);
    LAXML_CHECK(st.ok()) << "token at range " << meta_.id << " offset "
                         << byte_offset_ << " passed Skip but not Next: "
                         << st.ToString();
    decoded_ = true;
  }
  return token_;
}

Result<RangeId> TokenCursor::LeaveRange() {
  Release();
  if (!meta_read_) {
    LAXML_ASSIGN_OR_RETURN(meta_, ranges_->GetMeta(meta_.id));
    meta_read_ = true;
  }
  return meta_.next;
}

Status TokenCursor::NextRange(Token* token) {
  LAXML_RETURN_IF_ERROR(RunOff());
  while (reader_.AtEnd()) {
    LAXML_ASSIGN_OR_RETURN(RangeId next, LeaveRange());
    if (next == kInvalidRangeId) {
      valid_ = false;
      return Status::OK();
    }
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, StepTo(next));
    LAXML_RETURN_IF_ERROR(LoadRange(meta));
  }
  return DecodeOne(token);
}

Status TokenCursor::SkipSubtree(TokenSequence* out) {
  LAXML_DCHECK(valid_ && TokenOpensScope(type_))
      << "SkipSubtree needs a scope-opening token";
  const int64_t end_depth = depth();
  uint64_t scanned = 0;
  uint32_t at = 0;
  TokenType type = type_;
  Token* token = nullptr;
  while (depth_ > end_depth) {
    if (reader_.AtEnd()) LAXML_RETURN_IF_ERROR(RunOff());
    while (reader_.AtEnd()) {
      // Depth-profile skip: a range whose lowest running depth stays
      // above the end token's cannot hold it, so its metadata alone
      // advances depth and ordinals — no payload read, no header
      // decoded. This keeps insertIntoLast(root) cheap on a store of
      // thousands of ranges. Ids need no count: each loaded range
      // restarts them from its start_id.
      LAXML_ASSIGN_OR_RETURN(RangeId next, LeaveRange());
      while (true) {
        if (next == kInvalidRangeId) {
          valid_ = false;
          return Status::Corruption("subtree never closes");
        }
        LAXML_ASSIGN_OR_RETURN(RangeMeta meta, StepTo(next));
        if (out != nullptr || depth_ - end_depth + meta.min_depth <= 0) {
          LAXML_RETURN_IF_ERROR(LoadRange(meta));
          break;
        }
        depth_ += meta.depth_delta;
        next_ordinal_ += meta.token_count;
        next = meta.next;
      }
    }
    at = base_ + static_cast<uint32_t>(reader_.offset());
    if (out != nullptr) token = &out->emplace_back();
    Status st = token == nullptr ? reader_.Skip(&type) : reader_.Next(token);
    if (!st.ok() && !(st = DecodeAgain(at, token, &type, st)).ok()) return st;
    if (token != nullptr) type = token->type;
    ++scanned;
    Count(type);
  }
  LAXML_RC_ADD(tokens_scanned, scanned);
  skipped_headers_ += scanned;
  // The cursor now stands on the matching end token.
  type_ = type;
  name_symbol_ = kNoNameSymbol;
  decoded_ = false;
  byte_offset_ = at;
  return Status::OK();
}

}  // namespace laxml
