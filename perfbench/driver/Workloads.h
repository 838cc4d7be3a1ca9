//===- perfbench/driver/Workloads.h - The benchmark's workloads -*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads. Each owns a fixed op set generated from the workload
/// seed; an op is timed on its own and its output is checked afterwards, so
/// the checks never count as op time.
///
///   wide_block    runCompileRequest, greedy LSLP, one wide Figure-4 block
///   deep_global   runCompileRequest, global LSLP, two deep add/mul trees
///   fuzz_sweep    ModuleGenerator::generate + DifferentialOracle::check
///   paper_kernels runCompileRequest (O3/SLP-NR/SLP/LSLP) + execution on vm
///
//===----------------------------------------------------------------------===//

#ifndef LSLP_PERFBENCH_WORKLOADS_H
#define LSLP_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "fuzz/DifferentialOracle.h"
#include "server/Protocol.h"
#include "vectorizer/Config.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lslp {
class Module;
} // namespace lslp

namespace perfbench {

/// What a run is asked to do.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Smallest sizes, for the benchmark's self-test.
  bool Tiny = false;
  /// Corrupts every op's output (one flipped byte of the vm memory image;
  /// for fuzz_sweep one corrupted store inside the oracle) so the self-test
  /// can confirm the checks count the op as failed.
  bool InjectMiscompile = false;
  /// Chrome trace-event output of the traced run ("" = none).
  std::string TraceFile;
};

/// The observable result of executing a module: memory image, return
/// values (or trap reasons) and simulated cycles.
struct Exec {
  std::vector<uint8_t> Memory;
  std::vector<std::string> Returns;
  double Cycles = 0;
};

/// One kernel entry call: void @Fn(i64 N), weighted for suite cycles.
struct Call {
  std::string Fn;
  uint64_t N = 0;
  double Weight = 1;
};

/// One input module.
struct Input {
  std::string Name;
  std::string Text;
  /// Kernel entry calls; empty runs every no-argument function instead.
  std::vector<Call> Calls;
  /// Seed of the initial memory image.
  uint64_t MemSeed = 0;
  /// fuzz_sweep: the generator seed of this module.
  uint64_t GenSeed = 0;
  /// Scalar reference, executed on interp.
  Exec Ref;
  unsigned Instructions = 0;
};

/// One vectorizer configuration an op compiles under.
struct CompileConfig {
  lslp::VectorizerConfig VC;
  /// false = O3: parse, verify and print only.
  bool Vectorize = true;
};

struct OpResult {
  double Ms = 0;
  bool Ok = true;
  std::string Why;
  /// Simulated cycles of the checked output (compile workloads).
  double Cycles = 0;
};

class Workload {
public:
  explicit Workload(const Options &Opts);

  /// Generates the inputs, parses and verifies each one, computes its
  /// scalar reference on interp, and runs one warm-up op per op slot
  /// (fuzz_sweep: the first few). Warm-up outputs become the expected
  /// outputs of later ops. Each call starts over.
  void setup();

  /// Ops and failures of the most recent setup()'s warm-up.
  unsigned warmupOps() const { return WarmupOps; }
  unsigned warmupFailures() const { return WarmupFailures; }

  size_t numOps() const { return Ops.size(); }

  /// Runs op \p I untraced: times it, then checks its output.
  OpResult runOp(size_t I);

  /// Runs op \p I as a replay of the same work through public layer calls,
  /// each inside a span, then the per-layer probes on the same input
  /// (Probes.cpp).
  OpResult runTracedOp(size_t I, Tracer &T);

  /// Per-layer metrics of the runTracedOp calls so far (at least one), by
  /// metric name; \p Overhead is the measured traced/untraced op time.
  std::vector<std::pair<std::string, double>>
  layerMetrics(const Tracer &T, double Overhead) const;

  /// Geomean over inputs of scalar cycles / LSLP-vectorized cycles.
  double simCyclesSpeedup();

private:
  struct Op {
    size_t In = 0;
    size_t Cfg = 0;
    lslp::server::CompileRequest Req;
    std::string ExpectedIR;
  };
  /// Accumulators of the traced run (Probes.cpp).
  struct ProbeTotals {
    /// Oracle twins whose AfterPassHook repeats, and times, each execution
    /// the oracle is about to make.
    lslp::DifferentialOracle Plain;
    lslp::DifferentialOracle Parity;
    unsigned HookCalls = 0;
    double HookMs = 0;
    /// Time of the repeated executions (scalar baseline included).
    double OracleExecMs = 0;

    unsigned Ops = 0;
    double Instructions = 0;
    double SeedBundles = 0;
    Counters Pass;   ///< Counter deltas over vectorizer.pass calls.
    Counters Global; ///< Counter deltas over vectorizer.global_pack calls.
    double GreedyMs = 0;
    double GlobalMs = 0;
  };

  bool isFuzz() const { return Opts.Workload == "fuzz_sweep"; }
  bool isPaper() const { return Opts.Workload == "paper_kernels"; }
  const lslp::DifferentialOracle &oracleFor(uint64_t GenSeed) const;

  void makeInputs();
  void makeOps();
  /// The output checks of a compile op: \p Out is the output module (null
  /// when its IR did not parse), \p IR its printed form, \p Accepted the
  /// accepted bundle count, \p Ran the op's own vm execution if it made one.
  OpResult check(Op &O, const lslp::Module *Out, const std::string &IR,
                 long Accepted, const Exec *Ran);
  /// The fuzz_sweep op; with \p T its steps are spans.
  OpResult runFuzzOp(size_t I, Tracer *T);
  /// A compile op as the compile service runs it (parse, verify, pass,
  /// verify, print), in process; paper_kernels ops also execute the result
  /// on vm. With \p T each step is a span.
  OpResult runPipelineOp(size_t I, Tracer *T);
  /// Runs the per-layer probes on op \p I's input; returns a failure
  /// description, or "" (the oracle probe checks the input too).
  std::string probe(size_t I, Tracer &T);
  const lslp::DifferentialOracle &tracedOracleFor(uint64_t GenSeed) const;

  Options Opts;
  std::vector<Input> Inputs;
  std::vector<CompileConfig> Configs;
  std::vector<Op> Ops;
  /// Index into Configs of the configuration speedups are taken under.
  size_t SpeedupCfg = 0;
  double Speedup = 0;
  unsigned WarmupOps = 0;
  unsigned WarmupFailures = 0;
  /// fuzz_sweep's oracles: CI's default sweep, and its parity leg.
  lslp::DifferentialOracle Plain, Parity;
  std::unique_ptr<ProbeTotals> Totals;
};

/// True for the four workload names.
bool isWorkloadName(const std::string &Name);

/// Executes \p M on \p Kind the way the checks do (fresh memory image from
/// \p In's seed, every call of \p In, step limit 50M).
Exec execute(const lslp::Module &M, const Input &In, lslp::EngineKind Kind);

} // namespace perfbench

#endif // LSLP_PERFBENCH_WORKLOADS_H
