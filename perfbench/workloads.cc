// Workloads and their independent correctness checks.
//
// transplant_hugepage / transplant_4k: one M1 host whose guests hold seeded
// content in every page. A cycle rewrites a seeded slice of guest pages, runs
// the InPlaceTP chain Xen -> KVM -> bhyve -> Xen on that host, then a
// MigrationTP ping-pong (Xen -> KVM -> Xen) of a batch of VMs between two
// more hosts.
//
// campaign_100k: 4 DCs x 100 racks x 250 hosts (100k hosts, 1M VMs) on 8
// shards and one real thread. A cycle is one work-stealing campaign plus one
// adaptive-policy campaign with latency jitter.
//
// The checks recompute what the outputs must be from the benchmark's own
// inputs (content generator, VM configs, campaign configs) and never from
// another output of the same call.

#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "perfbench/probe.h"
#include "src/campaign/campaign.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/migration_tp.h"

namespace perfbench {
namespace {

using namespace hypertp;  // NOLINT: the benchmark speaks the simulator's types.

constexpr double kDaySeconds = 86400.0;

// The benchmark's own generator (splitmix64), independent of the simulator's
// RNG, so inputs and expected contents never depend on the code under test.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(Mix(seed ^ 0x5EEDB10Cull)) {}
  uint64_t Next() { return Mix(state_++); }
  // Uniform integer in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// Content word of guest page `gfn` of VM `vm_index` at write `version`.
// Never 0: a zero word reads as "never written".
uint64_t Content(uint64_t seed, uint64_t vm_index, uint64_t gfn, uint64_t version) {
  return Mix(Mix(seed * 0x100000001B3ull ^ vm_index) ^ Mix(gfn * 0x9E37ull + version)) | 1;
}

// Cycle c >= 1 rewrites the pages with gfn % stride == c % stride. The
// version a page holds after cycle `cycle` is the last such c, or 0 (set-up).
uint64_t ExpectedVersion(uint64_t gfn, uint64_t cycle, uint64_t stride) {
  const uint64_t first = gfn % stride == 0 ? stride : gfn % stride;
  if (cycle < first) {
    return 0;
  }
  return first + ((cycle - first) / stride) * stride;
}

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// ---------------------------------------------------------------------------
// Transplant checks (pure functions over captured data).

// Every page of the VM holds the generator's word for its last write.
std::string CheckGuestContent(const std::vector<std::pair<Gfn, uint64_t>>& dump,
                              uint64_t memory_bytes, uint64_t seed, uint64_t vm_index,
                              uint64_t cycle, uint64_t stride) {
  const uint64_t pages = memory_bytes / kPageSize;
  if (dump.size() != pages) {
    return Fmt("content: vm %llu holds %zu written pages, expected %llu",
               static_cast<unsigned long long>(vm_index), dump.size(),
               static_cast<unsigned long long>(pages));
  }
  for (uint64_t gfn = 0; gfn < pages; ++gfn) {
    const uint64_t want = Content(seed, vm_index, gfn, ExpectedVersion(gfn, cycle, stride));
    if (dump[gfn].first != gfn || dump[gfn].second != want) {
      return Fmt("content: vm %llu gfn %llu reads %#llx, expected %#llx",
                 static_cast<unsigned long long>(vm_index),
                 static_cast<unsigned long long>(dump[gfn].first),
                 static_cast<unsigned long long>(dump[gfn].second),
                 static_cast<unsigned long long>(want));
    }
  }
  return "";
}

// Coalesces adjacent mappings so layouts compare independently of how a
// hypervisor splits its P2M / memslots.
std::vector<GuestMapping> Normalize(const std::vector<GuestMapping>& map) {
  std::vector<GuestMapping> out;
  for (const GuestMapping& m : map) {
    if (!out.empty() && out.back().gfn_end() == m.gfn &&
        out.back().mfn + out.back().frames == m.mfn) {
      out.back().frames += m.frames;
    } else {
      out.push_back(m);
    }
  }
  return out;
}

using MapsByUid = std::map<uint64_t, std::vector<GuestMapping>>;

// The in-place property: every guest frame keeps its MFN across the step.
std::string CheckMfnsKept(const MapsByUid& before, const MapsByUid& after,
                          const std::string& step) {
  if (before.size() != after.size()) {
    return Fmt("mfn: %s changed the VM set (%zu -> %zu)", step.c_str(), before.size(),
               after.size());
  }
  for (const auto& [uid, map] : before) {
    auto it = after.find(uid);
    if (it == after.end() || Normalize(it->second) != Normalize(map)) {
      return Fmt("mfn: %s moved guest frames of uid %llu", step.c_str(),
                 static_cast<unsigned long long>(uid));
    }
  }
  return "";
}

std::string CheckGuestFrames(uint64_t guest_frames, uint64_t expected, const std::string& where) {
  if (guest_frames != expected) {
    return Fmt("frames: %s owns %llu guest frames, VM configs give %llu", where.c_str(),
               static_cast<unsigned long long>(guest_frames),
               static_cast<unsigned long long>(expected));
  }
  return "";
}

std::string CheckNoLeak(uint64_t allocated, uint64_t baseline, const std::string& where) {
  if (allocated != baseline) {
    return Fmt("leak: %s has %llu frames allocated after the cycle, %llu after the first",
               where.c_str(), static_cast<unsigned long long>(allocated),
               static_cast<unsigned long long>(baseline));
  }
  return "";
}

std::string CheckVmsPreserved(const std::vector<VmInfo>& infos,
                              const std::map<uint64_t, VmConfig>& configs,
                              const std::string& where) {
  if (infos.size() != configs.size()) {
    return Fmt("vms: %s runs %zu VMs, expected %zu", where.c_str(), infos.size(), configs.size());
  }
  for (const VmInfo& info : infos) {
    auto it = configs.find(info.uid);
    if (it == configs.end()) {
      return Fmt("vms: %s runs unknown uid %llu", where.c_str(),
                 static_cast<unsigned long long>(info.uid));
    }
    if (info.vcpus != it->second.vcpus || info.memory_bytes != it->second.memory_bytes) {
      return Fmt("vms: uid %llu on %s has %u vCPUs / %llu bytes, configured %u / %llu",
                 static_cast<unsigned long long>(info.uid), where.c_str(), info.vcpus,
                 static_cast<unsigned long long>(info.memory_bytes), it->second.vcpus,
                 static_cast<unsigned long long>(it->second.memory_bytes));
    }
  }
  return "";
}

std::string CheckDowntime(SimDuration downtime, SimDuration total, const std::string& what) {
  if (!(downtime > 0 && downtime <= total)) {
    return Fmt("downtime: %s has downtime %.6f s, total %.6f s", what.c_str(),
               ToSeconds(downtime), ToSeconds(total));
  }
  return "";
}

// ---------------------------------------------------------------------------
// Campaign checks.

std::string CheckHostTotals(const CampaignReport& r, int config_hosts, const std::string& name) {
  if (r.hosts != config_hosts) {
    return Fmt("totals: %s reports %d hosts, config has %d", name.c_str(), r.hosts, config_hosts);
  }
  const int sum = r.upgraded + r.failed + r.untouched + r.refused + r.lost;
  if (sum != r.hosts) {
    return Fmt("totals: %s upgraded+failed+untouched+refused+lost = %d, hosts = %d",
               name.c_str(), sum, r.hosts);
  }
  int shard_sum = 0;
  for (const CampaignShardSummary& s : r.shard_summaries) {
    shard_sum += s.upgraded + s.failed + s.untouched + s.refused + s.lost;
  }
  if (shard_sum != r.hosts) {
    return Fmt("totals: %s per-shard outcomes sum to %d, hosts = %d", name.c_str(), shard_sum,
               r.hosts);
  }
  return "";
}

std::string CheckWorkConservingBound(const CampaignReport& r, double bound_s) {
  if (ToSeconds(r.makespan) < bound_s * (1.0 - 1e-12)) {
    return Fmt("bound: stealing makespan %.3f s beats the work-conserving bound %.3f s",
               ToSeconds(r.makespan), bound_s);
  }
  return "";
}

std::string CheckPolicyVms(const CampaignReport& r, int64_t config_vms) {
  const int64_t sum = static_cast<int64_t>(r.policy_inplace_vms) + r.policy_migrate_vms +
                      r.policy_refused_vms;
  if (sum != config_vms) {
    return Fmt("policy: inplace %d + migrate %d + refused %d = %lld VMs, config has %lld",
               r.policy_inplace_vms, r.policy_migrate_vms, r.policy_refused_vms,
               static_cast<long long>(sum), static_cast<long long>(config_vms));
  }
  return "";
}

std::string CheckCurve(const CampaignReport& r, const std::string& name) {
  const std::vector<ExposureCurvePoint>& curve = r.exposure_curve;
  if (curve.empty()) {
    return Fmt("curve: %s has no points", name.c_str());
  }
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].fraction > curve[i - 1].fraction || curve[i].time < curve[i - 1].time) {
      return Fmt("curve: %s rises at point %zu (%.6f -> %.6f)", name.c_str(), i,
                 curve[i - 1].fraction, curve[i].fraction);
    }
  }
  if (curve.back().fraction != r.final_fraction_vulnerable) {
    return Fmt("curve: %s ends at %.6f, report says %.6f", name.c_str(), curve.back().fraction,
               r.final_fraction_vulnerable);
  }
  return "";
}

// Integrates the reported curve as a step function from t = 0 (whole fleet
// exposed) to the last point. Between two recorded points the live count
// moved by less than epsilon of the fleet, which bounds the error.
std::string CheckExposureIntegral(const CampaignReport& r, double epsilon,
                                  const std::string& name) {
  double vm_seconds = 0.0;
  double exposed = static_cast<double>(r.vms);
  SimTime prev = 0;
  for (const ExposureCurvePoint& p : r.exposure_curve) {
    vm_seconds += exposed * ToSeconds(p.time - prev);
    prev = p.time;
    exposed = static_cast<double>(p.exposed_vms);
  }
  const double mine = vm_seconds / kDaySeconds;
  const double allowed =
      epsilon * static_cast<double>(r.vms) * ToSeconds(prev) / kDaySeconds + 1e-9 * mine;
  if (std::fabs(mine - r.exposed_vm_days) > allowed) {
    return Fmt("exposure: %s reports %.6f VM-days, the curve integrates to %.6f (allowed %.6f)",
               name.c_str(), r.exposed_vm_days, mine, allowed);
  }
  return "";
}

void AddIf(std::vector<std::string>& errors, std::string error) {
  if (!error.empty()) {
    errors.push_back(std::move(error));
  }
}

// ---------------------------------------------------------------------------
// Transplant workload.

struct TransplantParams {
  bool huge_pages = true;
  int host_vms = 4;            // VMs on the InPlaceTP host.
  uint64_t host_vm_mib = 1024;
  int migrate_vms = 2;         // VMs in the MigrationTP batch.
  uint64_t migrate_vm_mib = 512;
  // Each VM gets vcpus or vcpus + 1 vCPUs, drawn from the seed. vCPU state
  // moves the simulated translate and restore costs, while guest memory, and
  // with it the host time and memory of a cycle, stays the same for every seed.
  uint32_t vcpus = 2;
  int dirty_vms = 2;           // VMs the concurrent activity dirties.
  uint64_t write_stride = 32;  // A cycle rewrites one page in write_stride.
};

struct InPlaceStep {
  std::string name;
  MapsByUid before;
  MapsByUid after;
  TransplantReport report;
};

std::vector<VmInfo> InfosByUid(const Hypervisor& hv) {
  std::vector<VmInfo> infos;
  for (VmId id : hv.ListVms()) {
    auto info = hv.GetVmInfo(id);
    if (info.ok()) {
      infos.push_back(*info);
    }
  }
  std::sort(infos.begin(), infos.end(),
            [](const VmInfo& a, const VmInfo& b) { return a.uid < b.uid; });
  return infos;
}

MapsByUid SnapshotMaps(const Hypervisor& hv) {
  MapsByUid maps;
  for (const VmInfo& info : InfosByUid(hv)) {
    maps[info.uid] = hv.GuestMemoryMap(info.id).value_or({});
  }
  return maps;
}

uint64_t GuestFrames(const Machine& machine) {
  uint64_t frames = 0;
  for (const FrameExtent& e : machine.memory().ExtentsOfKind(FrameOwnerKind::kGuest)) {
    frames += e.count;
  }
  return frames;
}

class TransplantWorkload : public Workload {
 public:
  TransplantWorkload(std::string name, TransplantParams params, uint64_t seed)
      : name_(std::move(name)), p_(params), seed_(seed) {}

  std::string Setup() override {
    SeededStream rng(seed_);
    host_machine_ = std::make_unique<Machine>(MachineProfile::M1(), 1);
    mig_xen_machine_ = std::make_unique<Machine>(MachineProfile::M1(), 2);
    mig_kvm_machine_ = std::make_unique<Machine>(MachineProfile::M1(), 3);
    host_ = MakeHypervisor(HypervisorKind::kXen, *host_machine_);
    mig_xen_ = MakeHypervisor(HypervisorKind::kXen, *mig_xen_machine_);
    mig_kvm_ = MakeHypervisor(HypervisorKind::kKvm, *mig_kvm_machine_);
    auto make_vms = [&](Hypervisor& hv, int count, uint64_t mib,
                        std::map<uint64_t, VmConfig>& configs) -> std::string {
      for (int i = 0; i < count; ++i) {
        VmConfig config = VmConfig::Small(name_ + "-" + std::to_string(vm_index_.size()));
        config.vcpus = p_.vcpus + static_cast<uint32_t>(rng.Range(0, 1));
        config.memory_bytes = mib << 20;
        config.huge_pages = p_.huge_pages;
        Result<VmId> id = hv.CreateVm(config);
        if (!id.ok()) {
          return "create vm: " + id.error().ToString();
        }
        auto info = hv.GetVmInfo(*id);
        config.uid = info->uid;
        vm_index_[config.uid] = vm_index_.size();
        configs[config.uid] = config;
        std::string error = WriteAllPages(hv, *id, config, 0);
        if (!error.empty()) {
          return error;
        }
      }
      return "";
    };
    std::string error = make_vms(*host_, p_.host_vms, p_.host_vm_mib, host_configs_);
    if (error.empty()) {
      error = make_vms(*mig_xen_, p_.migrate_vms, p_.migrate_vm_mib, mig_configs_);
    }
    if (!error.empty()) {
      return error;
    }
    // A seeded subset of the host's VMs runs between pre-translation and
    // pause, so pre-translation both hits and invalidates.
    std::vector<uint64_t> uids;
    for (const auto& [uid, config] : host_configs_) {
      uids.push_back(uid);
    }
    for (size_t i = uids.size(); i > 1; --i) {
      std::swap(uids[i - 1], uids[rng.Next() % i]);
    }
    dirty_uids_.assign(uids.begin(), uids.begin() + std::min<size_t>(p_.dirty_vms, uids.size()));
    return "";
  }

  std::string RunCycle(Stopwatch& watch, CycleSim* sim, int64_t* ops) override {
    ++cycle_;
    steps_.clear();
    migration_reports_.clear();
    migration_results_.clear();
    // Guest activity: rewrite this cycle's slice of every VM's pages.
    for (Hypervisor* hv : {host_.get(), mig_xen_.get()}) {
      const auto& configs = hv == host_.get() ? host_configs_ : mig_configs_;
      for (VmId id : hv->ListVms()) {
        auto info = hv->GetVmInfo(id);
        std::string error = WriteSlice(*hv, id, configs.at(info->uid), cycle_);
        if (!error.empty()) {
          return error;
        }
      }
    }
    // InPlaceTP chain on the host.
    for (HypervisorKind target : {HypervisorKind::kKvm, HypervisorKind::kBhyve,
                                  HypervisorKind::kXen}) {
      InPlaceStep step;
      step.name = std::string(HypervisorKindName(host_->kind())) + "->" +
                  std::string(HypervisorKindName(target));
      watch.Pause();
      step.before = SnapshotMaps(*host_);
      watch.Resume();
      InPlaceOptions options;
      options.real_threads = 1;
      options.concurrent_activity = [this](Hypervisor& hv) {
        for (const VmInfo& info : InfosByUid(hv)) {
          if (std::find(dirty_uids_.begin(), dirty_uids_.end(), info.uid) != dirty_uids_.end()) {
            (void)hv.InjectGuestEvent(info.id, Hypervisor::GuestEventKind::kWorkloadStep);
          }
        }
      };
      ++*ops;
      Result<InPlaceResult> result = [&] {
        Span span(Layer::kCore, "InPlaceTransplant::Run");
        return InPlaceTransplant::Run(std::move(host_), target, options);
      }();
      if (!result.ok()) {
        return "InPlaceTP " + step.name + ": " + result.error().ToString();
      }
      host_ = std::move(result->hypervisor);
      if (result->report.outcome != TransplantOutcome::kCompleted) {
        return "InPlaceTP " + step.name + " rolled back";
      }
      watch.Pause();
      Count(Counter::kPretranslateHits, result->report.pretranslate_hits);
      Count(Counter::kPretranslateInvalidations, result->report.pretranslate_invalidations);
      step.after = SnapshotMaps(*host_);
      step.report = std::move(result->report);
      steps_.push_back(std::move(step));
      watch.Resume();
    }
    // MigrationTP ping-pong: Xen -> KVM -> Xen.
    const NetworkLink link{1.0};
    for (int leg = 0; leg < 2; ++leg) {
      Hypervisor& src = leg == 0 ? *mig_xen_ : *mig_kvm_;
      Hypervisor& dst = leg == 0 ? *mig_kvm_ : *mig_xen_;
      const std::vector<VmId> ids = src.ListVms();
      ++*ops;
      Result<MigrationTpResult> result = [&] {
        Span span(Layer::kCore, "MigrationTransplant::Run");
        return MigrationTransplant::Run(src, ids, dst, link, MigrationConfig{});
      }();
      if (!result.ok()) {
        return "MigrationTP leg " + std::to_string(leg) + ": " + result.error().ToString();
      }
      if (!result->batch.all_migrated()) {
        const Error* error = result->batch.first_error();
        return "MigrationTP leg " + std::to_string(leg) + ": " +
               (error != nullptr ? error->ToString() : std::string("VM not migrated"));
      }
      watch.Pause();
      migration_reports_.push_back(result->report);
      for (MigrationResult& r : result->migrations) {
        migration_results_.push_back(std::move(r));
      }
      watch.Resume();
    }
    watch.Pause();
    *sim = CycleSim{};
    for (const InPlaceStep& step : steps_) {
      const double vms = static_cast<double>(step.report.vm_count);
      sim->makespan_s += ToSeconds(step.report.total_time);
      sim->vm_downtime_s += ToSeconds(step.report.downtime) * vms;
      sim->exposure_vm_s += ToSeconds(step.report.total_time) * vms;
    }
    for (const TransplantReport& report : migration_reports_) {
      sim->makespan_s += ToSeconds(report.total_time);
    }
    for (const MigrationResult& r : migration_results_) {
      sim->vm_downtime_s += ToSeconds(r.downtime);
      sim->exposure_vm_s += ToSeconds(r.total_time);
    }
    watch.Resume();
    return "";
  }

  std::vector<std::string> Check() override {
    std::vector<std::string> errors;
    // The first cycle's end fixes the frame baseline: the hypervisor booted
    // at set-up is not byte-for-byte the one the chain's last reboot brings up.
    const uint64_t host_allocated = host_machine_->memory().allocated_frames();
    const uint64_t mig_allocated = mig_xen_machine_->memory().allocated_frames() +
                                   mig_kvm_machine_->memory().allocated_frames();
    if (!baseline_set_) {
      host_baseline_ = host_allocated;
      mig_baseline_ = mig_allocated;
      baseline_set_ = true;
    }
    AddIf(errors, CheckAllContent(*host_, host_configs_));
    AddIf(errors, CheckAllContent(*mig_xen_, mig_configs_));
    for (const InPlaceStep& step : steps_) {
      AddIf(errors, CheckMfnsKept(step.before, step.after, step.name));
      AddIf(errors, CheckDowntime(step.report.downtime, step.report.total_time,
                                  "InPlaceTP " + step.name));
    }
    for (const MigrationResult& r : migration_results_) {
      AddIf(errors, CheckDowntime(r.downtime, r.total_time, "MigrationTP VM"));
    }
    if (steps_.size() != 3 || migration_results_.size() != 2 * mig_configs_.size()) {
      errors.push_back("cycle: not every transplant ran");
    }
    AddIf(errors, CheckGuestFrames(GuestFrames(*host_machine_), ConfiguredFrames(host_configs_),
                                   "InPlaceTP host"));
    AddIf(errors, CheckGuestFrames(GuestFrames(*mig_xen_machine_) + GuestFrames(*mig_kvm_machine_),
                                   ConfiguredFrames(mig_configs_), "MigrationTP hosts"));
    AddIf(errors, CheckNoLeak(host_allocated, host_baseline_, "InPlaceTP host"));
    AddIf(errors, CheckNoLeak(mig_allocated, mig_baseline_, "MigrationTP hosts"));
    AddIf(errors, CheckVmsPreserved(InfosByUid(*host_), host_configs_, "InPlaceTP host"));
    AddIf(errors, CheckVmsPreserved(InfosByUid(*mig_xen_), mig_configs_, "MigrationTP Xen host"));
    return errors;
  }

  std::string Describe() const override {
    uint64_t host_bytes = 0;
    uint64_t mig_bytes = 0;
    for (const auto& [uid, c] : host_configs_) host_bytes += c.memory_bytes;
    for (const auto& [uid, c] : mig_configs_) mig_bytes += c.memory_bytes;
    return Fmt("%s: %s pages; InPlaceTP host %d VMs x %u-%u vCPUs, %.1f MiB total, %d dirtied; "
               "MigrationTP batch %d VMs, %.1f MiB total; 1 page in %llu rewritten per cycle",
               name_.c_str(), p_.huge_pages ? "2 MiB" : "4 KiB", p_.host_vms, p_.vcpus, p_.vcpus + 1,
               static_cast<double>(host_bytes) / (1 << 20), p_.dirty_vms, p_.migrate_vms,
               static_cast<double>(mig_bytes) / (1 << 20),
               static_cast<unsigned long long>(p_.write_stride)) +
           (steps_.empty() ? std::string()
                           : Fmt("; simulated Xen->KVM downtime %.3f s",
                                 ToSeconds(steps_.front().report.downtime)));
  }

  // Self-test access.
  Hypervisor& host() { return *host_; }
  const std::vector<InPlaceStep>& steps() const { return steps_; }

 private:
  static uint64_t ConfiguredFrames(const std::map<uint64_t, VmConfig>& configs) {
    uint64_t frames = 0;
    for (const auto& [uid, config] : configs) {
      frames += config.memory_bytes / kPageSize;
    }
    return frames;
  }

  std::string WriteAllPages(Hypervisor& hv, VmId id, const VmConfig& config, uint64_t version) {
    const uint64_t index = vm_index_.at(config.uid);
    for (Gfn gfn = 0; gfn < config.memory_bytes / kPageSize; ++gfn) {
      Result<void> r = hv.WriteGuestPage(id, gfn, Content(seed_, index, gfn, version));
      if (!r.ok()) {
        return "write page: " + r.error().ToString();
      }
    }
    return "";
  }

  std::string WriteSlice(Hypervisor& hv, VmId id, const VmConfig& config, uint64_t cycle) {
    const uint64_t index = vm_index_.at(config.uid);
    const uint64_t pages = config.memory_bytes / kPageSize;
    const uint64_t first = cycle % p_.write_stride;
    for (Gfn gfn = first; gfn < pages; gfn += p_.write_stride) {
      Result<void> r = [&] {
        Span span(Layer::kHv, "Hypervisor::WriteGuestPage");
        return hv.WriteGuestPage(id, gfn, Content(seed_, index, gfn, cycle));
      }();
      if (!r.ok()) {
        return "write page: " + r.error().ToString();
      }
    }
    return "";
  }

  std::string CheckAllContent(const Hypervisor& hv, const std::map<uint64_t, VmConfig>& configs) {
    for (const VmInfo& info : InfosByUid(hv)) {
      auto dump = hv.DumpGuestContent(info.id);
      if (!dump.ok()) {
        return "content: " + dump.error().ToString();
      }
      auto it = configs.find(info.uid);
      if (it == configs.end()) {
        return "content: unknown uid";
      }
      std::string error = CheckGuestContent(*dump, it->second.memory_bytes, seed_,
                                            vm_index_.at(info.uid), cycle_, p_.write_stride);
      if (!error.empty()) {
        return error;
      }
    }
    return "";
  }

  std::string name_;
  TransplantParams p_;
  uint64_t seed_;
  uint64_t cycle_ = 0;
  std::unique_ptr<Machine> host_machine_;
  std::unique_ptr<Machine> mig_xen_machine_;
  std::unique_ptr<Machine> mig_kvm_machine_;
  std::unique_ptr<Hypervisor> host_;
  std::unique_ptr<Hypervisor> mig_xen_;
  std::unique_ptr<Hypervisor> mig_kvm_;
  std::map<uint64_t, VmConfig> host_configs_;
  std::map<uint64_t, VmConfig> mig_configs_;
  std::map<uint64_t, uint64_t> vm_index_;  // uid -> generator index.
  std::vector<uint64_t> dirty_uids_;
  bool baseline_set_ = false;
  uint64_t host_baseline_ = 0;
  uint64_t mig_baseline_ = 0;
  std::vector<InPlaceStep> steps_;
  std::vector<TransplantReport> migration_reports_;
  std::vector<MigrationResult> migration_results_;
};

// ---------------------------------------------------------------------------
// Campaign workload.

struct CampaignParams {
  int racks = 100;
  int hosts_per_rack = 250;
  int width = 250;  // Parallel hosts per shard.
};

constexpr double kHostClass[4] = {1.0, 1.5, 2.0, 4.0};
constexpr int kCongestedDc = 1;

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(CampaignParams params, uint64_t seed) : p_(params), seed_(seed) {}

  std::string Setup() override {
    SeededStream rng(seed_);
    CampaignConfig base;
    for (int d = 0; d < 4; ++d) {
      CampaignDatacenter dc;
      dc.name = "dc" + std::to_string(d);
      dc.racks = p_.racks;
      dc.hosts_per_rack = p_.hosts_per_rack;
      dc.vms_per_host = 10;
      dc.timing.host_class = kHostClass[d];
      base.datacenters.push_back(dc);
    }
    base.shards = 8;
    base.parallel_hosts_per_shard = p_.width;
    base.per_host_transplant = Seconds(10);
    base.epoch = Seconds(5);
    base.real_threads = 1;
    base.seed = seed_;

    steal_ = base;
    steal_.steal.enabled = true;
    steal_.steal.threshold_epochs = 2.0;
    steal_.latency_jitter = 0.0;  // Exact wave math, so the bound below is tight.

    adaptive_ = base;
    adaptive_.policy.mode = policy::PolicyMode::kAdaptive;
    adaptive_.latency_jitter = 0.05;
    // One congested DC whose size moves with the seed by one rack either way,
    // so the decision mix and every sim-time output depend on it. Its refused
    // hosts stay exposed to the end, so this moves exposure the most.
    CampaignDatacenter& congested = adaptive_.datacenters[kCongestedDc];
    congested.link_gbps = 0.5;
    congested.racks = p_.racks + static_cast<int>(rng.Range(-1, 1));

    for (const CampaignConfig* config : {&steal_, &adaptive_}) {
      Result<CampaignPlan> plan = PlanCampaign(*config);
      if (!plan.ok()) {
        return "PlanCampaign: " + plan.error().ToString();
      }
    }
    double work_s = 0.0;
    for (const CampaignDatacenter& dc : steal_.datacenters) {
      work_s += static_cast<double>(dc.hosts()) * ToSeconds(steal_.per_host_transplant) *
                dc.timing.host_class;
    }
    bound_s_ = work_s / (static_cast<double>(steal_.shards) * steal_.parallel_hosts_per_shard);
    return "";
  }

  std::string RunCycle(Stopwatch& watch, CycleSim* sim, int64_t* ops) override {
    for (int which = 0; which < 2; ++which) {
      const CampaignConfig& config = which == 0 ? steal_ : adaptive_;
      ++*ops;
      Result<CampaignReport> run = [&] {
        Span span(Layer::kCampaign, "CampaignPlanner::Run");
        return CampaignPlanner(config).Run();
      }();
      if (!run.ok()) {
        return std::string(which == 0 ? "stealing" : "adaptive") +
               " campaign: " + run.error().ToString();
      }
      watch.Pause();
      Count(Counter::kCampaignEpochs, run->epochs);
      Count(Counter::kCampaignIdleEpochs, run->idle_epochs_skipped);
      Count(Counter::kCampaignSteals, run->steals);
      Count(Counter::kCurvePoints, static_cast<int64_t>(run->exposure_curve.size()));
      (which == 0 ? steal_report_ : adaptive_report_) = std::move(*run);
      watch.Resume();
    }
    watch.Pause();
    sim->makespan_s = ToSeconds(steal_report_.makespan) + ToSeconds(adaptive_report_.makespan);
    sim->vm_downtime_s = ToSeconds(adaptive_report_.policy_vm_downtime);
    sim->exposure_vm_s =
        (steal_report_.exposed_vm_days + adaptive_report_.exposed_vm_days) * kDaySeconds;
    watch.Resume();
    return "";
  }

  std::vector<std::string> Check() override {
    return CheckReports(steal_report_, adaptive_report_);
  }

  std::vector<std::string> CheckReports(const CampaignReport& steal,
                                        const CampaignReport& adaptive) const {
    std::vector<std::string> errors;
    AddIf(errors, CheckHostTotals(steal, ConfigHosts(steal_), "stealing"));
    AddIf(errors, CheckHostTotals(adaptive, ConfigHosts(adaptive_), "adaptive"));
    AddIf(errors, CheckWorkConservingBound(steal, bound_s_));
    AddIf(errors, CheckPolicyVms(adaptive, ConfigVms(adaptive_)));
    AddIf(errors, CheckCurve(steal, "stealing"));
    AddIf(errors, CheckCurve(adaptive, "adaptive"));
    AddIf(errors, CheckExposureIntegral(steal, steal_.exposure_min_fraction_delta, "stealing"));
    AddIf(errors,
          CheckExposureIntegral(adaptive, adaptive_.exposure_min_fraction_delta, "adaptive"));
    return errors;
  }

  std::string Describe() const override {
    return Fmt("campaign_100k: 4 DCs x %d racks x %d hosts x 10 VMs, classes 1/1.5/2/4x, "
               "8 shards x %d hosts wide; adaptive campaign's congested dc%d has %d racks",
               p_.racks, p_.hosts_per_rack, p_.width, kCongestedDc,
               adaptive_.datacenters.empty() ? 0 : adaptive_.datacenters[kCongestedDc].racks);
  }

  const CampaignReport& steal_report() const { return steal_report_; }
  const CampaignReport& adaptive_report() const { return adaptive_report_; }
  double bound_s() const { return bound_s_; }

 private:
  static int ConfigHosts(const CampaignConfig& config) {
    int hosts = 0;
    for (const CampaignDatacenter& dc : config.datacenters) hosts += dc.racks * dc.hosts_per_rack;
    return hosts;
  }
  static int64_t ConfigVms(const CampaignConfig& config) {
    int64_t vms = 0;
    for (const CampaignDatacenter& dc : config.datacenters) {
      vms += static_cast<int64_t>(dc.racks) * dc.hosts_per_rack * dc.vms_per_host;
    }
    return vms;
  }

  CampaignParams p_;
  uint64_t seed_;
  CampaignConfig steal_;
  CampaignConfig adaptive_;
  double bound_s_ = 0.0;
  CampaignReport steal_report_;
  CampaignReport adaptive_report_;
};

TransplantParams HugepageParams(bool small) {
  TransplantParams p;
  if (small) {
    p.host_vms = 2;
    p.host_vm_mib = 64;
    p.migrate_vms = 1;
    p.migrate_vm_mib = 64;
    p.dirty_vms = 1;
  }
  return p;
}

TransplantParams FourKParams(bool small) {
  TransplantParams p = HugepageParams(small);
  p.huge_pages = false;
  if (!small) {
    p.host_vm_mib = 256;
    p.migrate_vm_mib = 128;
  }
  return p;
}

CampaignParams CampaignScale(bool small) {
  CampaignParams p;
  if (small) {
    p.racks = 8;
    p.hosts_per_rack = 25;
    p.width = 25;
  }
  return p;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool small) {
  if (name == "transplant_hugepage") {
    return std::make_unique<TransplantWorkload>(name, HugepageParams(small), seed);
  }
  if (name == "transplant_4k") {
    return std::make_unique<TransplantWorkload>(name, FourKParams(small), seed);
  }
  if (name == "campaign_100k") {
    return std::make_unique<CampaignWorkload>(CampaignScale(small), seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Self-test: each check passes on valid data and fails on corrupted data.

namespace {

struct SelfTest {
  int failures = 0;

  void Expect(bool ok, const std::string& what) {
    std::printf("selftest %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) {
      ++failures;
    }
  }
  void Passes(const std::string& error, const std::string& what) {
    if (!error.empty()) {
      std::printf("  unexpected: %s\n", error.c_str());
    }
    Expect(error.empty(), what + " passes on valid data");
  }
  void Fails(const std::string& error, const std::string& what) {
    Expect(!error.empty(), what + " fails on corrupted data");
  }
};

void TransplantSelfTest(SelfTest& t) {
  auto workload = std::make_unique<TransplantWorkload>("transplant_hugepage",
                                                       HugepageParams(true), 7);
  std::string error = workload->Setup();
  t.Passes(error, "transplant set-up");
  Stopwatch watch;
  CycleSim sim;
  int64_t ops = 0;
  for (int cycle = 0; cycle < 2 && error.empty(); ++cycle) {
    watch.Start();
    error = workload->RunCycle(watch, &sim, &ops);
    watch.Pause();
  }
  t.Passes(error, "transplant cycles");
  if (!error.empty()) {
    return;
  }
  t.Expect(ops == 2 * (3 + 2), "a transplant cycle counts 3 InPlaceTP and 2 MigrationTP runs");
  std::vector<std::string> errors = workload->Check();
  t.Passes(errors.empty() ? "" : errors.front(), "transplant checks");

  // A corrupted guest page is caught by the content check.
  Hypervisor& hv = workload->host();
  const VmInfo victim = InfosByUid(hv).front();
  const uint64_t word = hv.ReadGuestPage(victim.id, 5).value_or(0);
  t.Expect(hv.WriteGuestPage(victim.id, 5, word ^ 0x10).ok(), "corrupt one guest page");
  errors = workload->Check();
  t.Fails(errors.empty() ? "" : errors.front(), "guest content check");
  t.Expect(errors.size() == 1 && errors.front().rfind("content:", 0) == 0,
           "guest content check names the page");
  (void)hv.WriteGuestPage(victim.id, 5, word);
  errors = workload->Check();
  t.Passes(errors.empty() ? "" : errors.front(), "restored guest page");

  // The remaining transplant checks, on the captured data.
  const InPlaceStep& step = workload->steps().front();
  t.Passes(CheckMfnsKept(step.before, step.after, step.name), "mfn check");
  MapsByUid moved = step.after;
  moved.begin()->second.back().mfn += kFramesPerHugePage;
  t.Fails(CheckMfnsKept(step.before, moved, step.name), "mfn check");
  t.Passes(CheckGuestFrames(1000, 1000, "host"), "guest-frame check");
  t.Fails(CheckGuestFrames(1000, 1001, "host"), "guest-frame check");
  t.Passes(CheckNoLeak(4096, 4096, "host"), "leak check");
  t.Fails(CheckNoLeak(4097, 4096, "host"), "leak check");
  std::map<uint64_t, VmConfig> configs;
  std::vector<VmInfo> infos = InfosByUid(hv);
  for (const VmInfo& info : infos) {
    VmConfig config;
    config.vcpus = info.vcpus;
    config.memory_bytes = info.memory_bytes;
    configs[info.uid] = config;
  }
  t.Passes(CheckVmsPreserved(infos, configs, "host"), "VM preservation check");
  std::vector<VmInfo> changed = infos;
  changed.front().vcpus += 1;
  t.Fails(CheckVmsPreserved(changed, configs, "host"), "VM preservation check (vCPUs)");
  changed = infos;
  changed.front().uid += 1000;
  t.Fails(CheckVmsPreserved(changed, configs, "host"), "VM preservation check (uid)");
  changed.pop_back();
  t.Fails(CheckVmsPreserved(changed, configs, "host"), "VM preservation check (count)");
  t.Passes(CheckDowntime(step.report.downtime, step.report.total_time, "step"), "downtime check");
  t.Fails(CheckDowntime(step.report.total_time + 1, step.report.total_time, "step"),
          "downtime check (> total)");
  t.Fails(CheckDowntime(0, step.report.total_time, "step"), "downtime check (zero)");
}

void CampaignSelfTest(SelfTest& t) {
  CampaignWorkload workload(CampaignScale(true), 7);
  std::string error = workload.Setup();
  t.Passes(error, "campaign set-up");
  Stopwatch watch;
  CycleSim sim;
  int64_t ops = 0;
  if (error.empty()) {
    watch.Start();
    error = workload.RunCycle(watch, &sim, &ops);
  }
  t.Passes(error, "campaign cycle");
  if (!error.empty()) {
    return;
  }
  t.Expect(ops == 2, "a campaign cycle counts its 2 campaigns");
  const CampaignReport& steal = workload.steal_report();
  const CampaignReport& adaptive = workload.adaptive_report();
  std::vector<std::string> errors = workload.CheckReports(steal, adaptive);
  t.Passes(errors.empty() ? "" : errors.front(), "campaign checks");
  t.Expect(steal.steals > 0 && adaptive.policy_migrate_vms > 0 && adaptive.refused > 0,
           "campaign exercises steals, migrations and refusals");

  // Each corruption must be reported by the check it targets (`prefix`).
  auto fails = [&](const std::string& what, const std::string& prefix, auto mutate) {
    CampaignReport s = steal;
    CampaignReport a = adaptive;
    mutate(s, a);
    std::string hit;
    for (const std::string& e : workload.CheckReports(s, a)) {
      if (e.rfind(prefix, 0) == 0) {
        hit = e;
      }
    }
    t.Fails(hit, what);
  };
  fails("host totals check (report)", "totals:", [](CampaignReport& s, CampaignReport&) { s.upgraded -= 1; });
  fails("host totals check (shards)", "totals:",
        [](CampaignReport& s, CampaignReport&) { s.shard_summaries[0].failed += 1; });
  fails("work-conserving bound check", "bound:", [&](CampaignReport& s, CampaignReport&) {
    s.makespan = SecondsF(workload.bound_s() * 0.99);
  });
  fails("policy VM check", "policy:", [](CampaignReport&, CampaignReport& a) { a.policy_migrate_vms += 1; });
  fails("curve monotone check (raised point)", "curve:", [](CampaignReport& s, CampaignReport&) {
    const size_t i = s.exposure_curve.size() / 2;
    s.exposure_curve[i].fraction = s.exposure_curve[i - 1].fraction + 0.01;
  });
  fails("curve end check", "curve:", [](CampaignReport&, CampaignReport& a) {
    a.final_fraction_vulnerable += 0.01;
  });
  fails("exposure integral check", "exposure:", [](CampaignReport& s, CampaignReport&) {
    s.exposed_vm_days *= 1.05;
  });
  fails("exposure integral check (dropped curve points)", "exposure:",
        [](CampaignReport&, CampaignReport& a) {
          const auto third = static_cast<std::ptrdiff_t>(a.exposure_curve.size() / 3);
          a.exposure_curve.erase(a.exposure_curve.begin() + third,
                                 a.exposure_curve.begin() + 2 * third);
        });
}

}  // namespace

int RunSelfTest() {
  SelfTest t;
  TransplantSelfTest(t);
  CampaignSelfTest(t);
  std::printf("selftest %s: %d failure(s)\n", t.failures == 0 ? "passed" : "FAILED", t.failures);
  return t.failures;
}

}  // namespace perfbench
