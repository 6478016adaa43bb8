#include "storage/record_store.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace laxml {

std::vector<uint8_t> RecordSlice::ToVector() && {
  if (!pin_.valid()) return std::move(copy_);
  return std::vector<uint8_t>(borrowed_.data(),
                              borrowed_.data() + borrowed_.size());
}

Result<std::unique_ptr<RecordStore>> RecordStore::Open(Pager* pager,
                                                      PageId data_head) {
  auto store = std::unique_ptr<RecordStore>(new RecordStore(pager, data_head));
  LAXML_RETURN_IF_ERROR(store->RebuildFreeSpaceMap());
  return store;
}

Status RecordStore::RebuildFreeSpaceMap() {
  page_free_.clear();
  free_index_.clear();
  stats_.data_pages = 0;
  PageId page = data_head_;
  while (page != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
    SlottedPage sp(h.view());
    NoteFreeSpace(page, sp.FreeSpace());
    ++stats_.data_pages;
    page = sp.next_page();
  }
  return Status::OK();
}

void RecordStore::NoteFreeSpace(PageId page, uint32_t free) {
  auto it = page_free_.find(page);
  if (it != page_free_.end()) {
    // Drop the stale inverted entry.
    auto range = free_index_.equal_range(it->second);
    for (auto fit = range.first; fit != range.second; ++fit) {
      if (fit->second == page) {
        free_index_.erase(fit);
        break;
      }
    }
    it->second = free;
  } else {
    page_free_[page] = free;
  }
  free_index_.emplace(free, page);
}

void RecordStore::ForgetFreeSpace(PageId page) {
  auto it = page_free_.find(page);
  if (it == page_free_.end()) return;
  auto range = free_index_.equal_range(it->second);
  for (auto fit = range.first; fit != range.second; ++fit) {
    if (fit->second == page) {
      free_index_.erase(fit);
      break;
    }
  }
  page_free_.erase(it);
}

Result<PageId> RecordStore::PageWithSpace(uint32_t need) {
  // Smallest page whose free space covers the need (best fit keeps big
  // holes available for big records).
  auto it = free_index_.lower_bound(need);
  if (it != free_index_.end()) {
    return it->second;
  }
  // Allocate a fresh heap page and push it at the head of the chain.
  LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->New(PageType::kSlotted));
  SlottedPage sp(h.view());
  sp.Init();
  sp.set_next_page(data_head_);
  h.MarkDirty();
  PageId id = h.id();
  if (data_head_ != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle old, pager_->Fetch(data_head_));
    SlottedPage old_sp(old.view());
    old_sp.set_prev_page(id);
    old.MarkDirty();
  }
  data_head_ = id;
  NoteFreeSpace(id, sp.FreeSpace());
  ++stats_.data_pages;
  return id;
}

Status RecordStore::ReleaseHeapPage(PageId page) {
  PageId prev, next;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
    SlottedPage sp(h.view());
    prev = sp.prev_page();
    next = sp.next_page();
  }
  if (prev != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(prev));
    SlottedPage sp(h.view());
    sp.set_next_page(next);
    h.MarkDirty();
  } else {
    data_head_ = next;
  }
  if (next != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(next));
    SlottedPage sp(h.view());
    sp.set_prev_page(prev);
    h.MarkDirty();
  }
  ForgetFreeSpace(page);
  --stats_.data_pages;
  return pager_->FreePage(page);
}

Status RecordStore::WriteOverflowChain(Slice payload, PageId* first_page) {
  uint32_t piece_cap = pager_->page_size() - kPageHeaderSize - 4;
  size_t remaining = payload.size();
  const uint8_t* src = payload.data();
  PageId prev = kInvalidPageId;
  *first_page = kInvalidPageId;
  while (remaining > 0 || *first_page == kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->New(PageType::kOverflow));
    uint8_t* p = h.view().payload();
    EncodeFixed32(p, kInvalidPageId);
    size_t piece = remaining < piece_cap ? remaining : piece_cap;
    std::memcpy(p + 4, src, piece);
    h.MarkDirty();
    PageId id = h.id();
    h.Release();
    if (prev == kInvalidPageId) {
      *first_page = id;
    } else {
      LAXML_ASSIGN_OR_RETURN(PageHandle ph, pager_->Fetch(prev));
      EncodeFixed32(ph.view().payload(), id);
      ph.MarkDirty();
    }
    prev = id;
    src += piece;
    remaining -= piece;
  }
  return Status::OK();
}

Status RecordStore::FreeOverflowChain(PageId first_page) {
  PageId page = first_page;
  while (page != kInvalidPageId) {
    PageId next;
    {
      LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
      next = DecodeFixed32(h.view().payload());
    }
    LAXML_RETURN_IF_ERROR(pager_->FreePage(page));
    page = next;
  }
  return Status::OK();
}

Result<RecordLocation> RecordStore::Place(Slice payload) {
  RecordLocation loc;
  loc.len = static_cast<uint32_t>(payload.size());
  uint8_t anchor[4];
  // Inline threshold: leave headroom so a page can host several records.
  if (payload.size() > SlottedPage::MaxRecordSize(pager_->page_size())) {
    // The anchor slot records the chain head, so every record has a
    // heap slot (its range's BlockId).
    PageId first;
    LAXML_RETURN_IF_ERROR(WriteOverflowChain(payload, &first));
    EncodeFixed32(anchor, first);
    payload = Slice(anchor, sizeof(anchor));
    loc.kind = RecordLocation::kOverflow;
    ++stats_.overflow_records;
  }
  LAXML_ASSIGN_OR_RETURN(
      loc.page, PageWithSpace(static_cast<uint32_t>(payload.size())));
  LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(loc.page));
  SlottedPage sp(h.view());
  LAXML_ASSIGN_OR_RETURN(loc.slot, sp.Insert(payload));
  h.MarkDirty();
  NoteFreeSpace(loc.page, sp.FreeSpace());
  return loc;
}

Status RecordStore::Remove(const RecordLocation& loc) {
  if (loc.kind == RecordLocation::kOverflow) {
    PageId chain;
    {
      LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(loc.page));
      SlottedPage sp(h.view());
      LAXML_ASSIGN_OR_RETURN(Slice anchor, sp.Get(loc.slot));
      if (anchor.size() != 4) {
        return Status::Corruption("overflow anchor slot is not 4 bytes");
      }
      chain = DecodeFixed32(anchor.data());
    }
    LAXML_RETURN_IF_ERROR(FreeOverflowChain(chain));
  }
  bool page_empty = false;
  {
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(loc.page));
    SlottedPage sp(h.view());
    LAXML_RETURN_IF_ERROR(sp.Delete(loc.slot));
    h.MarkDirty();
    page_empty = sp.Empty();
    if (!page_empty) NoteFreeSpace(loc.page, sp.FreeSpace());
  }
  if (page_empty) {
    LAXML_RETURN_IF_ERROR(ReleaseHeapPage(loc.page));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> RecordStore::Read(
    const RecordLocation& loc) const {
  LAXML_ASSIGN_OR_RETURN(RecordSlice slice, PinSlice(loc, 0, SIZE_MAX));
  return std::move(slice).ToVector();
}

Result<RecordSlice> RecordStore::PinSlice(const RecordLocation& loc,
                                          size_t offset, size_t len) const {
  ++stats_.reads;
  RecordSlice out;
  if (offset >= loc.len) return out;
  const size_t want = std::min(len, loc.len - offset);
  LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(loc.page));
  SlottedPage sp(h.view());
  LAXML_ASSIGN_OR_RETURN(Slice rec, sp.Get(loc.slot));
  if (loc.kind == RecordLocation::kInline) {
    if (rec.size() != loc.len) {
      return Status::Corruption(
          "record at page " + std::to_string(loc.page) + " slot " +
          std::to_string(loc.slot) + " is " + std::to_string(rec.size()) +
          " bytes, its location says " + std::to_string(loc.len));
    }
    out.borrowed_ = Slice(rec.data() + offset, want);
    out.pin_ = std::move(h);
    return out;
  }
  if (rec.size() != 4) {
    return Status::Corruption("overflow anchor slot is not 4 bytes");
  }
  PageId chain = DecodeFixed32(rec.data());
  h.Release();
  const size_t piece_cap = pager_->page_size() - kPageHeaderSize - 4;
  size_t pos = 0;  // record offset of the current piece's first byte
  while (chain != kInvalidPageId) {
    LAXML_ASSIGN_OR_RETURN(h, pager_->Fetch(chain));
    const uint8_t* p = h.view().payload();
    chain = DecodeFixed32(p);
    const size_t piece = std::min(loc.len - pos, piece_cap);
    if (pos + piece > offset) {
      const size_t start = offset > pos ? offset - pos : 0;
      const size_t take = std::min(want - out.copy_.size(), piece - start);
      if (out.copy_.empty() && take == want) {
        out.borrowed_ = Slice(p + 4 + start, want);
        out.pin_ = std::move(h);
        return out;
      }
      out.copy_.reserve(want);
      out.copy_.insert(out.copy_.end(), p + 4 + start, p + 4 + start + take);
      if (out.copy_.size() == want) return out;
    }
    pos += piece;
  }
  return Status::Corruption("overflow chain shorter than the record");
}

Result<RecordLocation> RecordStore::Replace(const RecordLocation& loc,
                                            Slice payload) {
  if (loc.kind == RecordLocation::kInline &&
      payload.size() <= SlottedPage::MaxRecordSize(pager_->page_size())) {
    // Try in place first.
    LAXML_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(loc.page));
    SlottedPage sp(h.view());
    Status st = sp.Update(loc.slot, payload);
    if (st.ok()) {
      h.MarkDirty();
      NoteFreeSpace(loc.page, sp.FreeSpace());
      RecordLocation moved = loc;
      moved.len = static_cast<uint32_t>(payload.size());
      return moved;
    }
    if (!st.IsResourceExhausted()) return st;
  }
  LAXML_RETURN_IF_ERROR(Remove(loc));
  return Place(payload);
}

}  // namespace laxml
