#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/json.h"
#include "common/varint.h"
#include "obs/metrics.h"

namespace laxml {
namespace obs {

namespace {

constexpr uint32_t kTraceMagic = 0x5458414c;  // "LAXT" little-endian
// Version 2 appended a trace_id varint to every event; version-1 dumps
// still decode (trace_id = 0).
constexpr uint32_t kTraceVersion = 2;
constexpr uint32_t kTraceVersionV1 = 1;

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v >> 16));
  dst->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t ReadFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

TraceRing::TraceRing(size_t capacity, uint64_t tid, RelaxedCounter* dropped)
    : slots_(capacity == 0 ? 1 : capacity), tid_(tid), dropped_(dropped) {}

void TraceRing::Record(const char* name, uint64_t start_us,
                       uint64_t dur_us, uint64_t trace_id) {
  MutexLock lock(mu_);
  if (slots_[next_].name != nullptr && dropped_ != nullptr) {
    // Overwriting a live slot: the ring lapped the last dump and the
    // oldest span is gone. Make the loss countable.
    ++*dropped_;
  }
  slots_[next_] = Slot{name, start_us, dur_us, trace_id};
  if (++next_ == slots_.size()) {
    next_ = 0;
    wrapped_ = true;
  }
}

void TraceRing::Drain(TraceDump* dump) const {
  MutexLock lock(mu_);
  // Intern by content, not pointer: two literals with equal text may or
  // may not share an address.
  std::unordered_map<std::string, uint32_t> interned;
  for (uint32_t i = 0; i < dump->names.size(); ++i) {
    interned.emplace(dump->names[i], i);
  }
  auto emit = [&](const Slot& slot) {
    if (slot.name == nullptr) return;
    std::string name(slot.name);
    auto it = interned.find(name);
    if (it == interned.end()) {
      it = interned
               .emplace(name, static_cast<uint32_t>(dump->names.size()))
               .first;
      dump->names.push_back(std::move(name));
    }
    dump->events.push_back(TraceEvent{tid_, it->second, slot.start_us,
                                      slot.dur_us, slot.trace_id});
  };
  if (wrapped_) {
    for (size_t i = next_; i < slots_.size(); ++i) emit(slots_[i]);
  }
  for (size_t i = 0; i < next_; ++i) emit(slots_[i]);
}

Tracer& Tracer::Global() {
  // Leaked: rings may be touched by thread teardown after static
  // destruction would have run.
  static auto* tracer = new Tracer();
  return *tracer;
}

TraceRing* Tracer::ThreadRing() {
  thread_local std::shared_ptr<TraceRing> ring = [this] {
    MutexLock lock(mu_);
    auto created =
        std::make_shared<TraceRing>(ring_capacity_, next_tid_++, &dropped_);
    rings_.push_back(created);
    return created;
  }();
  return ring.get();
}

TraceDump Tracer::Collect() const {
  TraceDump dump;
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  for (const auto& ring : rings) ring->Drain(&dump);
  std::sort(dump.events.begin(), dump.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return dump;
}

void CollectTraceMetrics(Snapshot* snap) {
  if (const uint64_t dropped = Tracer::Global().dropped(); dropped > 0) {
    snap->counters["laxml_trace_ring_dropped_total"] = dropped;
  }
}

Status Tracer::DumpBinary(const std::string& path) const {
  const std::vector<uint8_t> bytes = EncodeTraceDump(Collect());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output '" + path + "'");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !close_ok) {
    return Status::IOError("short write to trace output '" + path + "'");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeTraceDump(const TraceDump& dump) {
  std::vector<uint8_t> out;
  PutFixed32(&out, kTraceMagic);
  PutFixed32(&out, kTraceVersion);
  PutVarint64(&out, dump.names.size());
  for (const std::string& name : dump.names) {
    PutVarint64(&out, name.size());
    out.insert(out.end(), name.begin(), name.end());
  }
  PutVarint64(&out, dump.events.size());
  for (const TraceEvent& ev : dump.events) {
    PutVarint64(&out, ev.tid);
    PutVarint64(&out, ev.name_id);
    PutVarint64(&out, ev.start_us);
    PutVarint64(&out, ev.dur_us);
    PutVarint64(&out, ev.trace_id);
  }
  return out;
}

Result<TraceDump> DecodeTraceDump(const uint8_t* data, size_t size) {
  const uint8_t* p = data;
  const uint8_t* limit = data + size;
  if (size < 8) return Status::Corruption("trace dump truncated header");
  if (ReadFixed32(p) != kTraceMagic) {
    return Status::Corruption("bad trace dump magic");
  }
  const uint32_t version = ReadFixed32(p + 4);
  if (version != kTraceVersion && version != kTraceVersionV1) {
    return Status::Corruption("unsupported trace dump version");
  }
  p += 8;
  auto read_varint = [&](uint64_t* v) {
    p = GetVarint64(p, limit, v);
    return p != nullptr;
  };
  TraceDump dump;
  uint64_t name_count = 0;
  if (!read_varint(&name_count)) {
    return Status::Corruption("trace dump: bad name count");
  }
  // Each name costs at least one length byte.
  if (name_count > static_cast<uint64_t>(limit - p)) {
    return Status::Corruption("trace dump: name count out of bounds");
  }
  dump.names.reserve(static_cast<size_t>(name_count));
  for (uint64_t i = 0; i < name_count; ++i) {
    uint64_t len = 0;
    if (!read_varint(&len)) {
      return Status::Corruption("trace dump: bad name length");
    }
    if (len > static_cast<uint64_t>(limit - p)) {
      return Status::Corruption("trace dump: name length out of bounds");
    }
    dump.names.emplace_back(reinterpret_cast<const char*>(p),
                            static_cast<size_t>(len));
    p += len;
  }
  uint64_t event_count = 0;
  if (!read_varint(&event_count)) {
    return Status::Corruption("trace dump: bad event count");
  }
  // Each event costs at least four varint bytes.
  if (event_count > static_cast<uint64_t>(limit - p) / 4 + 1) {
    return Status::Corruption("trace dump: event count out of bounds");
  }
  dump.events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; i < event_count; ++i) {
    TraceEvent ev;
    uint64_t name_id = 0;
    if (!read_varint(&ev.tid) || !read_varint(&name_id) ||
        !read_varint(&ev.start_us) || !read_varint(&ev.dur_us)) {
      return Status::Corruption("trace dump: truncated event");
    }
    if (version >= kTraceVersion && !read_varint(&ev.trace_id)) {
      return Status::Corruption("trace dump: truncated event trace id");
    }
    if (name_id >= dump.names.size()) {
      return Status::Corruption("trace dump: event name id out of range");
    }
    ev.name_id = static_cast<uint32_t>(name_id);
    dump.events.push_back(ev);
  }
  if (p != limit) {
    return Status::Corruption("trace dump: trailing bytes");
  }
  return dump;
}

Result<TraceDump> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("error reading trace file '" + path + "'");
  }
  return DecodeTraceDump(bytes.data(), bytes.size());
}

std::string TraceDump::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(names[ev.name_id], &out);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(ev.tid);
    out += ",\"ts\":" + std::to_string(ev.start_us);
    out += ",\"dur\":" + std::to_string(ev.dur_us);
    if (ev.trace_id != 0) {
      out += ",\"args\":{\"trace_id\":" + std::to_string(ev.trace_id) + "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

TraceDump MergeTraceDumps(const std::vector<TraceDump>& dumps) {
  TraceDump merged;
  std::unordered_map<std::string, uint32_t> interned;
  uint64_t tid_base = 0;
  for (const TraceDump& dump : dumps) {
    uint64_t max_tid = 0;
    for (const TraceEvent& ev : dump.events) {
      TraceEvent copy = ev;
      const std::string& name = dump.names[ev.name_id];
      auto it = interned.find(name);
      if (it == interned.end()) {
        it = interned
                 .emplace(name, static_cast<uint32_t>(merged.names.size()))
                 .first;
        merged.names.push_back(name);
      }
      copy.name_id = it->second;
      copy.tid += tid_base;
      if (ev.tid > max_tid) max_tid = ev.tid;
      merged.events.push_back(copy);
    }
    tid_base += max_tid + 1;
  }
  std::sort(merged.events.begin(), merged.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return merged;
}

}  // namespace obs
}  // namespace laxml
