// Span stack, self-time attribution and counters for the traced binary.

#include "perfbench/probe.h"

#include <chrono>
#include <cstdio>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {
namespace {

// Spans this deep or deeper are attributed but not kept as records: the
// hot leaf calls (one per frame or page) would otherwise fill memory.
constexpr int kRecordDepth = 3;
constexpr size_t kMaxRecords = 1 << 18;

constexpr const char* kLayerNames[] = {"hw",       "pram",     "kexec",  "hv",
                                       "uisr",     "pipeline", "core",   "migrate",
                                       "fleet",    "campaign", "vulndb", "policy"};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) == static_cast<int>(Layer::kCount));

inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  Layer layer;
  uint64_t start;
  uint64_t child_ticks;
  int64_t record;  // Index into records, or -1.
};

struct Record {
  const char* name;
  Layer layer;
  uint64_t start;
  uint64_t end;
  int64_t parent;
};

struct State {
  bool enabled = false;
  std::vector<Frame> stack;
  std::vector<Record> records;
  uint64_t self_ticks[static_cast<int>(Layer::kCount)] = {};
  int64_t counts[static_cast<int>(Counter::kCount)] = {};
  // Tick-to-time calibration, taken over the whole accounting interval.
  uint64_t calib_ticks = 0;
  int64_t calib_ns = 0;
};

State& S() {
  static State state;
  return state;
}

double TicksPerMs() {
  State& s = S();
  const int64_t ns = NowNs() - s.calib_ns;
  const uint64_t ticks = Ticks() - s.calib_ticks;
  return ns > 0 ? static_cast<double>(ticks) / (static_cast<double>(ns) / 1e6) : 1.0;
}

}  // namespace

Span::Span(Layer layer, const char* name) {
  State& s = S();
  if (!s.enabled) {
    // A disabled span pushes a marker frame so the destructor pops evenly.
    s.stack.push_back(Frame{layer, 0, 0, -2});
    return;
  }
  int64_t record = -1;
  if (static_cast<int>(s.stack.size()) < kRecordDepth && s.records.size() < kMaxRecords) {
    int64_t parent = -1;
    for (auto it = s.stack.rbegin(); it != s.stack.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<int64_t>(s.records.size());
    s.records.push_back(Record{name, layer, 0, 0, parent});
  }
  s.stack.push_back(Frame{layer, Ticks(), 0, record});
  if (record >= 0) {
    s.records[record].start = s.stack.back().start;
  }
}

Span::~Span() {
  State& s = S();
  const uint64_t end = Ticks();
  const Frame frame = s.stack.back();
  s.stack.pop_back();
  if (frame.record == -2) {
    return;
  }
  const uint64_t duration = end - frame.start;
  s.self_ticks[static_cast<int>(frame.layer)] +=
      duration > frame.child_ticks ? duration - frame.child_ticks : 0;
  if (!s.stack.empty()) {
    s.stack.back().child_ticks += duration;
  }
  if (frame.record >= 0) {
    s.records[frame.record].end = end;
  }
}

void Count(Counter counter, int64_t n) {
  State& s = S();
  if (s.enabled) {
    s.counts[static_cast<int>(counter)] += n;
  }
}

void Enable(bool on) { S().enabled = on; }
bool Enabled() { return S().enabled; }

void Reset() {
  State& s = S();
  for (uint64_t& t : s.self_ticks) t = 0;
  for (int64_t& c : s.counts) c = 0;
  s.records.clear();
  s.calib_ticks = Ticks();
  s.calib_ns = NowNs();
}

Totals Snapshot() {
  State& s = S();
  Totals totals;
  const double per_ms = TicksPerMs();
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    totals.self_ms[i] = static_cast<double>(s.self_ticks[i]) / per_ms;
  }
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    totals.counts[i] = s.counts[i];
  }
  return totals;
}

bool WriteSpans(const std::string& path) {
  State& s = S();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double per_ms = TicksPerMs();
  const uint64_t origin = s.calib_ticks;
  std::fprintf(f, "{\"unit\":\"ms\",\"spans\":[\n");
  for (size_t i = 0; i < s.records.size(); ++i) {
    const Record& r = s.records[i];
    std::fprintf(f, "%s{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start\":%.6f,\"end\":%.6f,"
                 "\"parent\":%lld}\n",
                 i == 0 ? "" : ",", i, r.name, kLayerNames[static_cast<int>(r.layer)],
                 static_cast<double>(r.start - origin) / per_ms,
                 static_cast<double>(r.end - origin) / per_ms, static_cast<long long>(r.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
