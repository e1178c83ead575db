// perfbench: runs one workload for a fixed time and prints one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//             [--min-cycles <n>] [--spans <path>]
//   perfbench --selftest
//
// A run builds its inputs (set-up), runs warm-up cycles, then runs timed
// cycles back to back until --seconds have passed and at least --min-cycles
// were timed. Every cycle, warm-up included, is followed by the workload's
// correctness checks, which are not timed. Set-up time is one cold set-up,
// measured from the first of the program's static initializers, so it leaves
// out only process creation and dynamic loading. perfbench/run.py drives this
// binary and formats its output.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kWarmupCycles = 2;
constexpr size_t kMaxReportedErrors = 5;

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Set by the first constructor to run: priority 101 comes before every
// default-priority static initializer of the program and of the simulator.
int64_t g_start_ns = 0;
__attribute__((constructor(101))) void RecordStart() { g_start_ns = MonotonicNs(); }

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int min_cycles = 40;
  std::string spans_path;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--min-cycles") {
      args->min_cycles = std::max(1, std::atoi(value));
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

#if defined(PERFBENCH_TRACED)
// Per-layer metrics per timed cycle, by the names BENCHMARK.json lists.
std::string LayerJson(const Totals& t, int cycles) {
  const double n = static_cast<double>(cycles);
  auto ms = [&](Layer l) { return t.self_ms[static_cast<int>(l)] / n; };
  auto count = [&](Counter c) { return static_cast<double>(t.counts[static_cast<int>(c)]); };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double hits = count(Counter::kPretranslateHits);
  const double invalidations = count(Counter::kPretranslateInvalidations);
  struct Item {
    const char* name;
    double value;
  };
  const Item items[] = {
      {"hw.busy_ms", ms(Layer::kHw)},
      {"hw.owner_lookups", count(Counter::kOwnerLookups) / n},
      {"pram.busy_ms", ms(Layer::kPram)},
      {"pram.entries", count(Counter::kPramEntries) / n},
      {"pram.metadata_bytes", count(Counter::kPramMetadataBytes) / n},
      {"kexec.busy_ms", ms(Layer::kKexec)},
      {"kexec.frames_scrubbed", count(Counter::kFramesScrubbed) / n},
      {"hv.busy_ms", ms(Layer::kHv)},
      {"hv.guest_page_ops", count(Counter::kGuestPageOps) / n},
      {"uisr.busy_ms", ms(Layer::kUisr)},
      {"uisr.bytes", count(Counter::kUisrBytes) / n},
      {"pipeline.busy_ms", ms(Layer::kPipeline)},
      {"pipeline.pretranslate_hit_ratio", ratio(hits, hits + invalidations)},
      {"core.self_ms", ms(Layer::kCore)},
      {"migrate.busy_ms", ms(Layer::kMigrate)},
      {"migrate.pages_copied", count(Counter::kMigratePagesCopied) / n},
      {"migrate.resend_ratio",
       ratio(count(Counter::kMigrateBytesSent), count(Counter::kMigrateGuestBytes))},
      {"fleet.busy_ms", ms(Layer::kFleet)},
      {"fleet.events", count(Counter::kFleetEvents) / n},
      {"campaign.self_ms", ms(Layer::kCampaign)},
      {"campaign.epochs", count(Counter::kCampaignEpochs) / n},
      {"campaign.idle_epoch_ratio",
       ratio(count(Counter::kCampaignIdleEpochs), count(Counter::kCampaignEpochs))},
      {"campaign.steals", count(Counter::kCampaignSteals) / n},
      {"vulndb.busy_ms", ms(Layer::kVulndb)},
      {"vulndb.curve_points", count(Counter::kCurvePoints) / n},
      {"policy.busy_ms", ms(Layer::kPolicy)},
      {"policy.decisions", count(Counter::kPolicyDecisions) / n},
  };
  std::string out = "{";
  char buf[96];
  for (const Item& item : items) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", out.size() > 1 ? "," : "", item.name,
                  item.value);
    out += buf;
  }
  return out + "}";
}
#endif

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, false);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::string error = workload->Setup();
  const double setup_s = static_cast<double>(MonotonicNs() - g_start_ns) / 1e9;

  std::vector<std::string> errors;
  if (!error.empty()) {
    errors.push_back("set-up: " + error);
  }
  std::vector<double> cycle_ms;
  CycleSim first_sim;
  bool sim_steady = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  int warmup = 0;
  const int64_t start_ns = MonotonicNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  while (errors.empty()) {
    const bool timed = warmup >= kWarmupCycles;
    if (timed && static_cast<int>(cycle_ms.size()) >= args.min_cycles &&
        MonotonicNs() - start_ns >= budget_ns) {
      break;
    }
#if defined(PERFBENCH_TRACED)
    if (timed && cycle_ms.empty()) {
      Reset();
    }
    Enable(timed);
#endif
    Stopwatch watch;
    CycleSim sim;
    int64_t ops = 0;
    watch.Start();
    error = workload->RunCycle(watch, &sim, &ops);
    watch.Pause();
#if defined(PERFBENCH_TRACED)
    Enable(false);
#endif
    if (timed) {
      attempted += ops;
    }
    if (!error.empty()) {
      // The cycle stops at the failing operation, the last one it started.
      failed += timed ? 1 : 0;
      errors.push_back(error);
      break;
    }
    for (std::string& e : workload->Check()) {
      errors.push_back(std::move(e));
    }
    if (!timed) {
      first_sim = sim;
      ++warmup;
      continue;
    }
    sim_steady &= sim == first_sim;
    cycle_ms.push_back(static_cast<double>(watch.ElapsedNs()) / 1e6);
  }
  if (!sim_steady) {
    errors.push_back("sim: simulated outputs differ between identical cycles");
  }
  const bool correct = errors.empty() && !cycle_ms.empty();

  std::string out = "{\"workload\":" + JsonString(args.workload);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ",\"seed\":%llu,\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                "\"setup_s\":%.9g,\"peak_rss_mb\":%.9g,\"cycles\":%zu,\"warmup_cycles\":%d",
                static_cast<unsigned long long>(args.seed), correct ? "true" : "false",
                static_cast<long long>(attempted), static_cast<long long>(failed), setup_s,
                PeakRssMiB(), cycle_ms.size(), warmup);
  out += buf;
  if (!cycle_ms.empty()) {
    std::snprintf(buf, sizeof(buf), ",\"cycle_ms\":{\"p10\":%.9g,\"p50\":%.9g,\"p75\":%.9g}",
                  Quantile(cycle_ms, 0.10), Quantile(cycle_ms, 0.5), Quantile(cycle_ms, 0.75));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                ",\"sim\":{\"makespan_s\":%.17g,\"vm_downtime_s\":%.17g,\"exposure_vm_s\":%.17g}",
                first_sim.makespan_s, first_sim.vm_downtime_s, first_sim.exposure_vm_s);
  out += buf;
#if defined(PERFBENCH_TRACED)
  if (!cycle_ms.empty()) {
    out += ",\"layers\":" + LayerJson(Snapshot(), static_cast<int>(cycle_ms.size()));
  }
  if (!args.spans_path.empty() && !WriteSpans(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
  }
#endif
  out += ",\"inputs\":" + JsonString(workload->Describe());
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors.size() && i < kMaxReportedErrors; ++i) {
    if (i > 0) {
      out += ',';
    }
    out += JsonString(errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "[--min-cycles <n>] [--spans <path>] | --selftest\n");
    return 2;
  }
  if (args.selftest) {
    return perfbench::RunSelfTest() == 0 ? 0 : 1;
  }
  return perfbench::Run(args);
}
