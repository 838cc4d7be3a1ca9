//===- perfbench/driver/Probes.cpp - The traced run -----------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A traced op runs the same work as the untraced op, but as a sequence of
// calls into the layers' public functions, each inside a span (the "op"
// span's children; trace.coverage is the share of the op they cover). The
// probes that follow call the inner layers the op cannot expose without
// instrumenting the program: dependence analysis, seed collection, graph
// build, look-ahead, global packing, the CFG passes, the compile service,
// the three engines, and the fuzz generator and oracle.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/DependenceGraph.h"
#include "costmodel/TargetTransformInfo.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/ModuleGenerator.h"
#include "ir/BasicBlock.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "jit/JITEngine.h"
#include "parser/Parser.h"
#include "server/CompileService.h"
#include "support/Casting.h"
#include "transforms/EarlyCSE.h"
#include "transforms/IfConversion.h"
#include "transforms/LoopUnroll.h"
#include "vectorizer/GlobalPacking.h"
#include "vectorizer/GraphBuilder.h"
#include "vectorizer/LookAhead.h"
#include "vectorizer/SLPVectorizerPass.h"
#include "vectorizer/SeedCollector.h"
#include "vm/BytecodeCompiler.h"
#include "vm/MemoryInit.h"

using namespace lslp;
using namespace perfbench;

using Span = Tracer::Span;


namespace {

void addDelta(Counters &Sum, const Counters &Before) {
  for (const auto &[Name, Value] : counterDelta(Before, snapshotCounters()))
    Sum[Name] += Value;
}

/// Repeats the executions DifferentialOracle::check makes of \p M: on
/// interp, and for the parity leg also on vm and (where the host runs
/// generated code) jit, with cycle accounting and statistics on.
void replayOracleExecution(const Module &M, uint64_t InputSeed, bool Parity) {
  SkylakeTTI TTI;
  std::vector<EngineKind> Kinds = {EngineKind::TreeWalk};
  if (Parity) {
    Kinds.push_back(EngineKind::Bytecode);
    if (jit::available())
      Kinds.push_back(EngineKind::NativeJit);
  }
  for (EngineKind K : Kinds) {
    auto E = ExecutionEngine::create(K, M, Parity ? &TTI : nullptr);
    E->setStepLimit(50u * 1000u * 1000u);
    E->setCollectStats(Parity);
    initGlobalMemory(*E, M, InputSeed, MemoryInitStyle::FuzzUniform);
    for (const auto &F : M.functions())
      if (F->getNumArgs() == 0 && !F->empty())
        E->run(F.get());
  }
}

} // namespace

OpResult Workload::runTracedOp(size_t I, Tracer &T) {
  if (!Totals) {
    OracleOptions Base;
    if (isFuzz())
      Base = Plain.options();
    // The hook sees each config's module twice (the oracle's determinism
    // re-run) and the oracle executes the first; the hook repeats that
    // execution, and its own time is taken out of the oracle's.
    auto Replay = [this, Inject = Base.AfterPassHook](bool Parity) {
      return [this, Inject, Parity](Module &M) {
        if (Inject)
          Inject(M);
        auto Start = Clock::now();
        if (Totals->HookCalls++ % 2 == 0) {
          replayOracleExecution(M, Totals->Plain.options().InputSeed, Parity);
          Totals->OracleExecMs += msSince(Start);
        }
        Totals->HookMs += msSince(Start);
      };
    };
    Totals = std::make_unique<ProbeTotals>();
    Base.AfterPassHook = Replay(false);
    Totals->Plain = DifferentialOracle(Base);
    Base.AfterPassHook = Replay(true);
    Base.CheckEngineParity = true;
    Totals->Parity = DifferentialOracle(Base);
  }
  T.beginOp(Totals->Ops);
  Counters Before = snapshotCounters();
  Totals->HookCalls = 0;
  OpResult R = isFuzz() ? runFuzzOp(I, &T) : runPipelineOp(I, &T);
  std::string ProbeFailure = probe(I, T);
  if (R.Ok && !ProbeFailure.empty()) {
    R.Ok = false;
    R.Why = ProbeFailure;
  }
  T.recordCounters("counters", counterDelta(Before, snapshotCounters()));
  ++Totals->Ops;
  return R;
}

std::string Workload::probe(size_t I, Tracer &T) {
  Span ProbeSpan(T, "probes");
  const Op &O = Ops[I];
  const Input &In = Inputs[O.In];
  const VectorizerConfig LSLP = VectorizerConfig::lslp();
  const VectorizerConfig Global = [&] {
    VectorizerConfig C = LSLP;
    C.Strategy = VectorizerConfig::PackingStrategyKind::Global;
    return C;
  }();
  SkylakeTTI TTI;
  Totals->Instructions += In.Instructions;

  // fuzz_sweep's op parses only inside the oracle: time the parse here.
  if (isFuzz()) {
    Context Ctx;
    Span S(T, "parser.parse");
    parseModuleOrError(In.Text, Ctx);
  }

  // Inner vectorizer layers on one fresh copy; none of these calls
  // changes the IR.
  {
    Context Ctx;
    std::unique_ptr<Module> M = parseModuleOrDie(In.Text, Ctx);
    std::vector<std::pair<BasicBlock *, std::vector<SeedBundle>>> Seeds;
    for (const auto &F : M->functions())
      for (const auto &BB : *F) {
        {
          Span S(T, "analysis.depgraph");
          DependenceGraph DG(*BB);
        }
        Span S(T, "vectorizer.seed");
        Seeds.emplace_back(BB.get(), collectStoreSeeds(*BB, TTI));
        Totals->SeedBundles += Seeds.back().second.size();
      }
    for (auto &[BB, Bundles] : Seeds)
      for (const SeedBundle &Bundle : Bundles) {
        Span S(T, "vectorizer.graph_build");
        SLPGraphBuilder Builder(LSLP, *BB);
        Builder.build(Bundle);
      }
    // Look-ahead scores between the operands of adjacent seed-root lanes:
    // the comparisons operand reordering makes first.
    for (auto &[BB, Bundles] : Seeds)
      for (const SeedBundle &Bundle : Bundles) {
        Span S(T, "vectorizer.lookahead");
        for (size_t L = 0; L + 1 < Bundle.size(); ++L) {
          auto *A = dyn_cast<Instruction>(
              cast<StoreInst>(Bundle[L])->getValueOperand());
          auto *B = dyn_cast<Instruction>(
              cast<StoreInst>(Bundle[L + 1])->getValueOperand());
          if (!A || !B)
            continue;
          for (unsigned X = 0; X != A->getNumOperands(); ++X)
            for (unsigned Y = 0; Y != B->getNumOperands(); ++Y)
              getLookAheadScore(A->getOperand(X), B->getOperand(Y),
                                LSLP.MaxLookAheadLevel,
                                LSLP.ScoreAggregation);
        }
      }
    Counters GlobalBefore = snapshotCounters();
    for (auto &[BB, Bundles] : Seeds)
      for (const SeedBundle &Bundle : Bundles) {
        Span S(T, "vectorizer.global_pack");
        packBundleGlobally(Global, TTI, *BB, Bundle, nullptr);
      }
    addDelta(Totals->Global, GlobalBefore);
  }

  {
    Context Ctx;
    std::unique_ptr<Module> M = parseModuleOrDie(In.Text, Ctx);
    Span S(T, "transforms.cfg");
    runEarlyCSE(*M);
    runIfConversion(*M);
    runLoopUnroll(*M, LSLP.UnrollFactor);
  }

  // The whole compile service, and the ROADMAP's strategy comparison:
  // the same pass under greedy and global packing.
  {
    server::CompileRequest Req = O.Req;
    if (isFuzz()) {
      Req.ModuleText = In.Text;
      Req.ConfigJSON = LSLP.toJSON();
      Req.Report = true;
    }
    Span S(T, "server.compile_request");
    server::runCompileRequest(Req);
  }
  for (const VectorizerConfig *C : {&LSLP, &Global}) {
    Context Ctx;
    std::unique_ptr<Module> M = parseModuleOrDie(In.Text, Ctx);
    auto Start = Clock::now();
    SLPVectorizerPass(*C, TTI).runOnModule(*M);
    (C == &LSLP ? Totals->GreedyMs : Totals->GlobalMs) += msSince(Start);
  }

  // Engines, on the op's own output (fuzz_sweep: the LSLP output).
  {
    Context Ctx;
    std::unique_ptr<Module> M = parseModuleOrDie(In.Text, Ctx);
    if (isFuzz()) {
      Counters PassBefore = snapshotCounters();
      {
        Span S(T, "vectorizer.pass");
        SLPVectorizerPass(LSLP, TTI).runOnModule(*M);
      }
      addDelta(Totals->Pass, PassBefore);
    } else if (Configs[O.Cfg].Vectorize) {
      SLPVectorizerPass(Configs[O.Cfg].VC, TTI).runOnModule(*M);
    }
    {
      Span S(T, "vm.bytecode_compile");
      auto Layout = ExecutionEngine::computeGlobalLayout(*M);
      for (const auto &F : M->functions())
        if (!F->empty())
          vm::compileFunction(*F, Layout, &TTI);
    }
    {
      Span S(T, "interp.exec");
      execute(*M, In, EngineKind::TreeWalk);
    }
    // paper_kernels ops already executed on vm.
    if (!isPaper()) {
      Span S(T, "vm.exec");
      execute(*M, In, EngineKind::Bytecode);
    }
    {
      Span S(T, "jit.exec");
      execute(*M, In, EngineKind::NativeJit);
    }
  }

  // The fuzz layer. fuzz_sweep's op already generated and checked its
  // module; elsewhere the generator makes one module per op and the
  // oracle checks the op's own input. Either way the executions the
  // oracle made are then replayed and timed.
  std::string Failure;
  if (!isFuzz()) {
    {
      Span S(T, "fuzz.generate");
      Context Ctx;
      ModuleGenerator(Opts.Seed * 1000003 + I).generate(Ctx);
    }
    Totals->HookCalls = 0;
    OracleVerdict V;
    {
      Span S(T, "fuzz.oracle");
      V = Totals->Plain.check(In.Text);
    }
    if (!V.Passed)
      Failure = In.Name + ": oracle: " + V.ConfigName + ": " + V.Reason;
  }
  // The oracle's scalar baseline execution.
  Context Ctx;
  auto Start = Clock::now();
  replayOracleExecution(*parseModuleOrDie(In.Text, Ctx),
                        Totals->Plain.options().InputSeed,
                        isFuzz() && In.GenSeed % 4 == 0);
  Totals->OracleExecMs += msSince(Start);
  return Failure;
}

const DifferentialOracle &Workload::tracedOracleFor(uint64_t GenSeed) const {
  return GenSeed % 4 == 0 ? Totals->Parity : Totals->Plain;
}

std::vector<std::pair<std::string, double>>
Workload::layerMetrics(const Tracer &T, double Overhead) const {
  // Called after at least one runTracedOp, which creates Totals.
  const ProbeTotals &P = *Totals;
  const double Ops = P.Ops;
  std::vector<std::pair<std::string, double>> Out;
  const std::map<std::string, double> Self = T.selfMsByName();
  auto PerOpMs = [&](const std::string &Layer) {
    auto It = Self.find(Layer);
    Out.emplace_back(Layer + "_ms", It == Self.end() ? 0 : It->second / Ops);
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  auto Pass = [&](const char *Name) {
    return static_cast<double>(counterValue(P.Pass, Name));
  };
  auto Global = [&](const char *Name) {
    return static_cast<double>(counterValue(P.Global, Name));
  };

  PerOpMs("parser.parse");
  PerOpMs("ir.verify");
  PerOpMs("ir.print");
  Out.emplace_back("ir.instructions", P.Instructions / Ops);
  PerOpMs("analysis.depgraph");
  PerOpMs("vectorizer.seed");
  Out.emplace_back("vectorizer.seed_bundles", P.SeedBundles / Ops);
  PerOpMs("vectorizer.graph_build");
  PerOpMs("vectorizer.lookahead");
  PerOpMs("vectorizer.global_pack");
  Out.emplace_back("vectorizer.solver_candidates",
                   Global("pack-set-solver.NumSolverCandidates") / Ops);
  Out.emplace_back("vectorizer.solver_improve_ratio",
                   Ratio(Global("global-packing.NumGlobalImprovements"),
                         Global("global-packing.NumGlobalSolves")));
  PerOpMs("vectorizer.pass");
  const double Accepted = Pass("slp-vectorizer.NumGraphsAccepted");
  Out.emplace_back(
      "vectorizer.accept_ratio",
      Ratio(Accepted, Accepted + Pass("slp-vectorizer.NumGraphsRejected")));
  Out.emplace_back("vectorizer.gather_nodes",
                   Pass("graph-builder.NumGatherNodes") / Ops);
  Out.emplace_back("vectorizer.multi_nodes",
                   Pass("graph-builder.NumMultiNodes") / Ops);
  Out.emplace_back("vectorizer.scheduler_bailouts",
                   Pass("scheduler.NumSchedulerBailouts") / Ops);
  Out.emplace_back("vectorizer.budget_exhausted",
                   Pass("slp-vectorizer.NumBudgetExhausted") / Ops);
  Out.emplace_back("vectorizer.global_greedy_ratio",
                   Ratio(P.GlobalMs, P.GreedyMs));
  PerOpMs("transforms.cfg");
  PerOpMs("server.compile_request");
  PerOpMs("vm.bytecode_compile");
  PerOpMs("vm.exec");
  PerOpMs("interp.exec");
  PerOpMs("jit.exec");
  PerOpMs("fuzz.generate");
  PerOpMs("fuzz.oracle");
  Out.emplace_back("fuzz.exec_share",
                   Ratio(P.OracleExecMs, T.totalMs("fuzz.oracle") - P.HookMs));
  Out.emplace_back("trace.coverage", T.childShare("op"));
  Out.emplace_back("trace.overhead", Overhead);
  return Out;
}
