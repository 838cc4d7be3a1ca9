//===- perfbench/driver/main.cpp - Benchmark driver -----------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload W --seed N --seconds S --trace 0|1
//           [--tiny] [--inject-miscompile] [--trace-file FILE]
//
// One process, one thread. Sets the workload up three times and reports the
// median set-up time, then runs whole rounds of the workload's op set until
// S seconds have passed and at least 100 ops ran (so p90 has ten samples
// beyond it). The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// first half of the time runs untraced ops, the second half traced ops
// (Probes.cpp), and the metrics are the per-layer ones.
//
// End-to-end times are corrected for host speed. On a shared 4-vCPU VM
// (2.0 GHz Xeon) one compile's time drifted by 30-50% over minutes, and the
// drift followed memory-bound work. So the run also times a fixed probe,
// ordered-map churn in its own arena that shares nothing with the
// compiler, about every half second, and scales every end-to-end time by
// ProbeReferenceMs / (median probe time). The raw values are printed on the
// line before the result.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory_resource>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace perfbench;

namespace {

constexpr int SetupRepeats = 3;
constexpr size_t MinSamples = 100;
/// Probe time the corrected values are scaled to: about the probe's median
/// on an unloaded 2.0 GHz Xeon vCPU, so corrected and raw values are close
/// there.
constexpr double ProbeReferenceMs = 10.0;
constexpr double ProbeEveryMs = 500;

/// The host-speed probe: 60000 random updates of a 30000-key ordered map
/// whose nodes come from a 4 MB arena allocated once, so the probe's work
/// and memory never depend on the compiler's heap.
class HostProbe {
public:
  HostProbe() : Arena(4u << 20) {}
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;

  /// Runs the probe once; returns its time in milliseconds.
  double run() {
    auto Start = Clock::now();
    std::pmr::monotonic_buffer_resource Pool(Arena.data(), Arena.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, uint64_t> M(&Pool);
    uint64_t X = 0x9E3779B97F4A7C15ull;
    for (int I = 0; I != 60000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      M[X % 30000] += X;
    }
    Sink += M.begin()->second;
    return msSince(Start);
  }

private:
  std::vector<std::byte> Arena;
  uint64_t Sink = 0;
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload wide_block|deep_global|"
               "fuzz_sweep|paper_kernels --seed N --seconds S --trace 0|1\n"
               "                 [--tiny] [--inject-miscompile] "
               "[--trace-file FILE]\n",
               Msg);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  if (!*Text || *Text == '-')
    return false;
  Out = std::strtoull(Text, &End, 10);
  return *End == '\0';
}

/// Nearest-rank percentile of \p Sorted (ascending, non-empty).
double percentile(const std::vector<double> &Sorted, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 0.5);
}

const char *layerUnit(const std::string &Name) {
  if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0)
    return "ms";
  for (const char *Ratio : {"ratio", "share", "coverage", "overhead"})
    if (Name.find(Ratio) != std::string::npos)
      return "ratio";
  return "count";
}

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void add(const OpResult &R) {
    ++Attempted;
    if (R.Ok)
      return;
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: failed op: %s\n", R.Why.c_str());
  }
};

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t N = 0;
    if (Arg == "--workload") {
      const char *V = Value();
      if (!V || !isWorkloadName(V))
        return usage("unknown workload");
      Opts.Workload = V;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      const char *V = Value();
      if (!V || !parseUnsigned(V, N))
        return usage("--seed takes a non-negative integer");
      Opts.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      const char *V = Value();
      if (!V || !parseUnsigned(V, N) || N == 0 || N > 600)
        return usage("--seconds takes an integer from 1 to 600");
      Opts.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      const char *V = Value();
      if (!V || (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0))
        return usage("--trace takes 0 or 1");
      Opts.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Arg == "--trace-file") {
      const char *V = Value();
      if (!V)
        return usage("--trace-file takes a path");
      Opts.TraceFile = V;
    } else if (Arg == "--tiny") {
      Opts.Tiny = true;
    } else if (Arg == "--inject-miscompile") {
      Opts.InjectMiscompile = true;
    } else {
      return usage(("unknown argument '" + Arg + "'").c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Workload W(Opts);
  // Set-up is corrected with the probes around it, the ops with the probes
  // among them.
  HostProbe Probe;
  std::vector<double> SetupS, SetupProbeMs, ProbeMs;
  for (int R = 0; R != SetupRepeats; ++R) {
    SetupProbeMs.push_back(Probe.run());
    auto Start = Clock::now();
    W.setup();
    SetupS.push_back(msSince(Start) / 1000.0);
  }
  SetupProbeMs.push_back(Probe.run());
  Tally Ops;
  Ops.Attempted = W.warmupOps();
  Ops.Failed = W.warmupFailures();
  const size_t Needed = Opts.Tiny ? 1 : MinSamples;

  // Whole rounds of the op set, so every run times the same op mix.
  std::vector<std::vector<double>> ByOp(W.numOps());
  std::vector<double> Samples;
  double OpMs = 0;
  const double Seconds = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  auto Start = Clock::now(), LastProbe = Start;
  do {
    for (size_t I = 0; I != W.numOps(); ++I) {
      if (ProbeMs.empty() || msSince(LastProbe) >= ProbeEveryMs) {
        ProbeMs.push_back(Probe.run());
        LastProbe = Clock::now();
      }
      OpResult R = W.runOp(I);
      Ops.add(R);
      Samples.push_back(R.Ms);
      ByOp[I].push_back(R.Ms);
      OpMs += R.Ms;
    }
  } while (msSince(Start) < Seconds * 1000 ||
           (!Opts.Trace && Samples.size() < Needed));
  std::sort(Samples.begin(), Samples.end());

  std::vector<std::pair<std::string, double>> Metrics;
  std::vector<const char *> Units;
  if (!Opts.Trace) {
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    const double Raw[] = {median(SetupS), percentile(Samples, 0.5),
                          percentile(Samples, 0.9),
                          Samples.size() / (OpMs / 1000.0)};
    const double C = ProbeReferenceMs / median(ProbeMs);
    const double SetupC = ProbeReferenceMs / median(SetupProbeMs);
    std::printf("raw: setup_s %.6g, op_ms_p50 %.6g, op_ms_p90 %.6g, "
                "ops_per_s %.6g; host probe median %.4g ms\n",
                Raw[0], Raw[1], Raw[2], Raw[3], median(ProbeMs));
    Metrics = {{"setup_s", Raw[0] * SetupC},
               {"op_ms_p50", Raw[1] * C},
               {"op_ms_p90", Raw[2] * C},
               {"ops_per_s", Raw[3] / C},
               {"sim_cycles_speedup", W.simCyclesSpeedup()},
               {"peak_rss_mb", Usage.ru_maxrss / 1024.0}};
    Units = {"s", "ms", "ms", "1/s", "x", "MB"};
  } else {
    // Traced ops need not finish a round: they are slow, and the layer
    // metrics are per-op means. The overhead compares each traced op with
    // the same op untraced.
    Tracer T;
    std::vector<double> Overhead;
    auto TracedStart = Clock::now();
    for (size_t I = 0; Overhead.empty() || msSince(TracedStart) < Seconds * 1000;
         I = (I + 1) % W.numOps()) {
      OpResult R = W.runTracedOp(I, T);
      Ops.add(R);
      Overhead.push_back(R.Ms / median(ByOp[I]));
    }
    if (!Opts.TraceFile.empty() && !T.writeChromeJSON(Opts.TraceFile))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   Opts.TraceFile.c_str());
    Metrics = W.layerMetrics(T, median(Overhead));
    for (const auto &M : Metrics)
      Units.push_back(layerUnit(M.first));
  }

  std::printf("perfbench %s seed %llu: %zu timed ops, %llu attempted, "
              "%llu failed, setup %.3f s\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Samples.size(), static_cast<unsigned long long>(Ops.Attempted),
              static_cast<unsigned long long>(Ops.Failed), median(SetupS));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Ops.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Ops.Attempted),
              static_cast<unsigned long long>(Ops.Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].first.c_str(), Metrics[I].second,
                Units[I]);
  std::printf("}}\n");
  return 0;
}
