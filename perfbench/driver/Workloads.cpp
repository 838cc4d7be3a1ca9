//===- perfbench/driver/Workloads.cpp - The benchmark's workloads ---------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Shapes.h"

#include "costmodel/TargetTransformInfo.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/ModuleGenerator.h"
#include "ir/BasicBlock.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Type.h"
#include "ir/Verifier.h"
#include "kernels/Kernels.h"
#include "parser/Parser.h"
#include "server/CompileService.h"
#include "support/Casting.h"
#include "support/RNG.h"
#include "vectorizer/SLPVectorizerPass.h"
#include "vm/MemoryInit.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

using namespace lslp;
using namespace perfbench;

namespace {

/// Sizes. The full sizes keep one op well under a second on a 2.0 GHz Xeon
/// vCPU (wide_block and deep_global 55-85 ms, a fuzz seed ~200 ms on
/// average, a paper-kernel op ~1.5 ms at the median) while a 20-s run still
/// collects at least 100 samples, so p90 has ten samples beyond it.
struct Sizes {
  unsigned WidePairs, WideModules;
  unsigned DeepDepth, DeepModules;
  unsigned FuzzWindow;
  unsigned PaperKernels, PaperSuites;
};
constexpr Sizes FullSizes{20, 8, 4, 16, 50, 11, 7};
constexpr Sizes TinySizes{3, 2, 2, 2, 3, 2, 1};

/// First generator seed of the fuzz window: CI's `lslpc --fuzz=N --seed=1`.
constexpr uint64_t FuzzFirstSeed = 1;
/// fuzz_sweep warm-up ops per setup (seed 4 among them gets the parity leg).
constexpr unsigned FuzzWarmupOps = 4;

uint64_t mixSeed(uint64_t Seed, uint64_t K) {
  RNG R(Seed * 0x9E3779B97F4A7C15ull + K);
  return R.next();
}

std::string renderReturn(const ExecStats &S) {
  if (S.Trapped)
    return "trap:" + S.TrapReason;
  const RuntimeValue &V = S.ReturnValue;
  if (!V.isValid())
    return "void";
  std::ostringstream OS;
  OS << V.Ty->getName() << ":" << std::hex;
  for (uint64_t Lane : V.Lanes)
    OS << Lane << ",";
  return OS.str();
}

unsigned countInstructions(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : *F)
      N += static_cast<unsigned>(BB->size());
  return N;
}

/// The injected miscompile of fuzz_sweep's self-test: the first scalar
/// integer store writes a constant instead of its value.
void corruptFirstStore(Module &M) {
  for (const auto &F : M.functions())
    for (const auto &BB : *F)
      for (const auto &I : *BB)
        if (auto *S = dyn_cast<StoreInst>(I.get()))
          if (auto *Ty = dyn_cast<IntegerType>(S->getAccessType())) {
            S->setOperand(0, M.getContext().getConstantInt(
                                 Ty, 0xA5A5A5A5A5A5A5A5ull));
            return;
          }
}

/// Accepted bundles in a compile report ("; config X: N bundle(s) ...").
long acceptedBundles(const std::string &Report) {
  size_t Colon = Report.find(": ");
  if (Report.rfind("; config ", 0) != 0 || Colon == std::string::npos)
    return -1;
  return std::strtol(Report.c_str() + Colon + 2, nullptr, 10);
}

std::string diffExec(const Exec &Ref, const Exec &Got) {
  if (Ref.Returns != Got.Returns)
    return "return values differ from the interp reference";
  if (Ref.Memory.size() != Got.Memory.size())
    return "memory image size differs from the interp reference";
  for (size_t B = 0; B != Ref.Memory.size(); ++B)
    if (Ref.Memory[B] != Got.Memory[B])
      return "memory differs from the interp reference at byte " +
             std::to_string(B);
  return "";
}

} // namespace

bool perfbench::isWorkloadName(const std::string &Name) {
  return Name == "wide_block" || Name == "deep_global" ||
         Name == "fuzz_sweep" || Name == "paper_kernels";
}

Exec perfbench::execute(const Module &M, const Input &In, EngineKind Kind) {
  SkylakeTTI TTI;
  auto Engine = ExecutionEngine::create(Kind, M, &TTI);
  Engine->setStepLimit(50u * 1000u * 1000u);
  Exec X;
  if (In.Calls.empty()) {
    initGlobalMemory(*Engine, M, In.MemSeed, MemoryInitStyle::FuzzUniform);
    for (const auto &F : M.functions()) {
      if (F->getNumArgs() != 0 || F->empty())
        continue;
      ExecStats S = Engine->run(F.get());
      X.Returns.push_back(renderReturn(S));
      X.Cycles += static_cast<double>(S.TotalCost);
    }
  } else {
    initKernelMemory(*Engine, M, In.MemSeed);
    for (const Call &C : In.Calls) {
      ExecStats S = Engine->run(
          M.getFunction(C.Fn),
          {RuntimeValue::makeInt(M.getContext().getInt64Ty(), C.N)});
      X.Returns.push_back(renderReturn(S));
      X.Cycles += C.Weight * static_cast<double>(S.TotalCost);
    }
  }
  X.Memory = Engine->getMemoryImage();
  return X;
}

Workload::Workload(const Options &Opts) : Opts(Opts) {
  if (isFuzz()) {
    // CI's sweep: the default configs on interp, and the three-way engine
    // parity leg on every 4th generator seed. The workload seed picks the
    // memory image the oracle executes against.
    OracleOptions Base;
    Base.InputSeed = mixSeed(Opts.Seed, 0);
    if (Opts.InjectMiscompile)
      Base.AfterPassHook = corruptFirstStore;
    Plain = DifferentialOracle(Base);
    Base.CheckEngineParity = true;
    Parity = DifferentialOracle(Base);
  }
}

const DifferentialOracle &Workload::oracleFor(uint64_t GenSeed) const {
  return GenSeed % 4 == 0 ? Parity : Plain;
}

void Workload::makeInputs() {
  const Sizes &Z = Opts.Tiny ? TinySizes : FullSizes;
  const std::string &W = Opts.Workload;
  Inputs.clear();
  Configs.clear();
  if (W == "wide_block" || W == "deep_global") {
    const bool Wide = W == "wide_block";
    const unsigned N = Wide ? Z.WideModules : Z.DeepModules;
    for (unsigned K = 0; K != N; ++K) {
      Input In;
      const uint64_t ShapeSeed = mixSeed(Opts.Seed, K + 1);
      In.Text = Wide ? wideBlockShape(Z.WidePairs, ShapeSeed)
                     : deepTreeShape(Z.DeepDepth, ShapeSeed);
      In.Name = W + "#" + std::to_string(K);
      In.MemSeed = mixSeed(ShapeSeed, 0);
      Inputs.push_back(std::move(In));
    }
    CompileConfig C{VectorizerConfig::lslp(), true};
    if (!Wide) {
      C.VC.Strategy = VectorizerConfig::PackingStrategyKind::Global;
      C.VC.Name += "-global";
    }
    Configs.push_back(C);
    SpeedupCfg = 0;
  } else if (W == "paper_kernels") {
    const uint64_t MemSeed = mixSeed(Opts.Seed, 0);
    std::vector<const KernelSpec *> Kernels = getFigureKernels();
    Kernels.resize(std::min<size_t>(Kernels.size(), Z.PaperKernels));
    for (const KernelSpec *K : Kernels) {
      Context Ctx;
      Input In;
      In.Name = K->Name;
      In.Text = moduleToString(*buildKernelModule(*K, Ctx));
      In.Calls.push_back({K->EntryFunction, K->DefaultN, 1.0});
      In.MemSeed = MemSeed;
      Inputs.push_back(std::move(In));
    }
    const std::vector<SuiteSpec> &Suites = getSuites();
    for (size_t S = 0; S != std::min<size_t>(Suites.size(), Z.PaperSuites);
         ++S) {
      Context Ctx;
      Input In;
      In.Name = Suites[S].Name;
      In.Text = moduleToString(*buildSuiteModule(Suites[S], Ctx));
      for (size_t I = 0; I != Suites[S].Members.size(); ++I) {
        const KernelSpec *K = findKernel(Suites[S].Members[I]);
        In.Calls.push_back({K->EntryFunction, K->DefaultN,
                            Suites[S].Weights[I]});
      }
      In.MemSeed = MemSeed;
      Inputs.push_back(std::move(In));
    }
    VectorizerConfig O3;
    O3.Name = "O3";
    Configs = {{O3, false},
               {VectorizerConfig::slpNoReordering(), true},
               {VectorizerConfig::slp(), true},
               {VectorizerConfig::lslp(), true}};
    SpeedupCfg = 3;
  } else {
    for (unsigned K = 0; K != Z.FuzzWindow; ++K) {
      Context Ctx;
      Input In;
      In.GenSeed = FuzzFirstSeed + K;
      ModuleGenerator Gen(In.GenSeed);
      In.Text = moduleToString(*Gen.generate(Ctx));
      In.Name = "fuzz#" + std::to_string(In.GenSeed);
      In.MemSeed = mixSeed(Opts.Seed, 0);
      Inputs.push_back(std::move(In));
    }
    // Speedups of the fuzz modules are taken under greedy LSLP.
    Configs.push_back({VectorizerConfig::lslp(), true});
    SpeedupCfg = 0;
  }

  // Parse and verify each input, then its scalar reference on interp.
  for (Input &In : Inputs) {
    Context Ctx;
    Expected<std::unique_ptr<Module>> M = parseModuleOrError(In.Text, Ctx);
    if (!M || !verifyModule(**M)) {
      std::fprintf(stderr, "perfbench: input %s does not parse and verify\n",
                   In.Name.c_str());
      std::exit(1);
    }
    In.Instructions = countInstructions(**M);
    In.Ref = execute(**M, In, EngineKind::TreeWalk);
  }
}

void Workload::makeOps() {
  Ops.clear();
  if (isFuzz()) {
    for (size_t I = 0; I != Inputs.size(); ++I)
      Ops.push_back(Op{I, 0, {}, {}});
    return;
  }
  for (size_t I = 0; I != Inputs.size(); ++I)
    for (size_t C = 0; C != Configs.size(); ++C) {
      Op O{I, C, {}, {}};
      O.Req.InputName = Inputs[I].Name;
      O.Req.ModuleText = Inputs[I].Text;
      O.Req.ConfigJSON = Configs[C].VC.toJSON();
      O.Req.Vectorize = Configs[C].Vectorize;
      O.Req.Report = true;
      O.Req.Jobs = 1;
      Ops.push_back(std::move(O));
    }
  // A seed-dependent op order, so no module always follows the same one.
  RNG R(mixSeed(Opts.Seed, 1));
  for (size_t I = Ops.size(); I > 1; --I)
    std::swap(Ops[I - 1], Ops[R.nextBelow(I)]);
}

void Workload::setup() {
  makeInputs();
  makeOps();
  WarmupOps = WarmupFailures = 0;
  std::vector<double> LogRatios;
  const size_t Warm = isFuzz() ? std::min<size_t>(FuzzWarmupOps, Ops.size())
                               : Ops.size();
  for (size_t I = 0; I != Warm; ++I) {
    OpResult R = runOp(I);
    ++WarmupOps;
    if (!R.Ok) {
      ++WarmupFailures;
      std::fprintf(stderr, "perfbench: warm-up op %zu failed: %s\n", I,
                   R.Why.c_str());
    }
    if (!isFuzz() && Ops[I].Cfg == SpeedupCfg && R.Cycles > 0)
      LogRatios.push_back(std::log(Inputs[Ops[I].In].Ref.Cycles / R.Cycles));
  }
  Speedup = 0;
  if (!LogRatios.empty()) {
    double Sum = 0;
    for (double L : LogRatios)
      Sum += L;
    Speedup = std::exp(Sum / static_cast<double>(LogRatios.size()));
  }
}

double Workload::simCyclesSpeedup() {
  if (Speedup > 0 || !isFuzz())
    return Speedup;
  // fuzz_sweep ops do not compile under one fixed config, so the speedup
  // is computed once, outside setup and the timed loop.
  SkylakeTTI TTI;
  double Sum = 0;
  for (const Input &In : Inputs) {
    Context Ctx;
    std::unique_ptr<Module> M = parseModuleOrDie(In.Text, Ctx);
    SLPVectorizerPass(Configs[SpeedupCfg].VC, TTI).runOnModule(*M);
    Sum += std::log(In.Ref.Cycles /
                    execute(*M, In, EngineKind::Bytecode).Cycles);
  }
  Speedup = std::exp(Sum / static_cast<double>(Inputs.size()));
  return Speedup;
}

OpResult Workload::check(Op &O, const Module *Out, const std::string &IR,
                         long Accepted, const Exec *Ran) {
  OpResult R;
  auto Fail = [&](std::string Why) {
    R.Ok = false;
    R.Why = Inputs[O.In].Name + " / " + Configs[O.Cfg].VC.Name + ": " +
            std::move(Why);
    return R;
  };
  const Input &In = Inputs[O.In];
  if (!Out)
    return Fail("output IR does not parse");
  std::vector<std::string> Errors;
  if (!verifyModule(*Out, &Errors))
    return Fail("output IR fails verification: " +
                (Errors.empty() ? std::string() : Errors[0]));
  if (O.ExpectedIR.empty())
    O.ExpectedIR = IR;
  else if (O.ExpectedIR != IR)
    return Fail("two compiles of the same input print different IR");
  Exec X = Ran ? *Ran : execute(*Out, In, EngineKind::Bytecode);
  if (Opts.InjectMiscompile && !X.Memory.empty())
    X.Memory[X.Memory.size() / 2] ^= 0x01;
  std::string Diff = diffExec(In.Ref, X);
  if (!Diff.empty())
    return Fail(Diff);
  // The generated shapes exist to be vectorized: a module that LSLP leaves
  // scalar means the workload silently stopped measuring the vectorizer.
  if (In.Calls.empty() && Configs[O.Cfg].VC.EnableMultiNode && Accepted <= 0)
    return Fail("no accepted bundle under LSLP (the workload went scalar)");
  R.Cycles = X.Cycles;
  return R;
}

OpResult Workload::runOp(size_t I) {
  if (isFuzz())
    return runFuzzOp(I, nullptr);
  if (isPaper())
    return runPipelineOp(I, nullptr);

  Op &O = Ops[I];
  auto Start = Clock::now();
  server::CompileResponse Resp = server::runCompileRequest(O.Req);
  const double Ms = msSince(Start);
  OpResult R;
  if (Resp.ExitCode != 0) {
    R.Ok = false;
    R.Why = Inputs[O.In].Name + ": compile failed: " + Resp.ErrorText;
  } else {
    Context Ctx;
    Expected<std::unique_ptr<Module>> M = parseModuleOrError(Resp.IRText, Ctx);
    R = check(O, M ? M->get() : nullptr, Resp.IRText,
              acceptedBundles(Resp.ReportText), nullptr);
  }
  R.Ms = Ms;
  return R;
}

OpResult Workload::runPipelineOp(size_t I, Tracer *T) {
  Op &O = Ops[I];
  const Input &In = Inputs[O.In];
  const CompileConfig &C = Configs[O.Cfg];
  SkylakeTTI TTI;
  Context Ctx;
  std::unique_ptr<Module> M;
  std::string IR;
  long Accepted = -1;
  Exec Ran;

  auto Start = Clock::now();
  {
    auto OpSpan = maybeSpan(T, "op");
    {
      auto S = maybeSpan(T, "parser.parse");
      Expected<std::unique_ptr<Module>> Parsed =
          parseModuleOrError(In.Text, Ctx);
      if (Parsed)
        M = std::move(*Parsed);
    }
    if (M) {
      {
        auto S = maybeSpan(T, "ir.verify");
        verifyModule(*M);
      }
      if (C.Vectorize) {
        const Counters Before = T ? snapshotCounters() : Counters();
        {
          auto S = maybeSpan(T, "vectorizer.pass");
          Accepted = SLPVectorizerPass(C.VC, TTI).runOnModule(*M).numAccepted();
        }
        if (T)
          for (const auto &[Name, N] : counterDelta(Before, snapshotCounters()))
            Totals->Pass[Name] += N;
        auto S = maybeSpan(T, "ir.verify");
        verifyModule(*M);
      }
      {
        auto S = maybeSpan(T, "ir.print");
        IR = moduleToString(*M);
      }
      if (isPaper()) {
        auto S = maybeSpan(T, "vm.exec");
        Ran = execute(*M, In, EngineKind::Bytecode);
      }
    }
  }
  const double Ms = msSince(Start);

  OpResult R;
  if (!M) {
    R.Ok = false;
    R.Why = In.Name + ": input does not parse";
  } else {
    R = check(O, M.get(), IR, Accepted, isPaper() ? &Ran : nullptr);
  }
  R.Ms = Ms;
  return R;
}

OpResult Workload::runFuzzOp(size_t I, Tracer *T) {
  const Input &In = Inputs[Ops[I].In];

  auto Start = Clock::now();
  OpResult R;
  {
    auto OpSpan = maybeSpan(T, "op");
    Context Ctx;
    std::unique_ptr<Module> M;
    {
      auto S = maybeSpan(T, "fuzz.generate");
      ModuleGenerator Gen(In.GenSeed);
      M = Gen.generate(Ctx);
    }
    bool Verified;
    {
      auto S = maybeSpan(T, "ir.verify");
      Verified = verifyModule(*M);
    }
    std::string IR;
    {
      auto S = maybeSpan(T, "ir.print");
      IR = moduleToString(*M);
    }
    OracleVerdict V;
    {
      auto S = maybeSpan(T, "fuzz.oracle");
      V = (T ? tracedOracleFor(In.GenSeed) : oracleFor(In.GenSeed)).check(IR);
    }
    R.Ms = msSince(Start);
    if (!Verified) {
      R.Ok = false;
      R.Why = In.Name + ": generated module fails verification";
    } else if (IR != In.Text) {
      R.Ok = false;
      R.Why = In.Name + ": two generations of the same seed differ";
    } else if (!V.Passed) {
      R.Ok = false;
      R.Why = In.Name + ": oracle: " + V.ConfigName + ": " + V.Reason;
    }
  }
  return R;
}
