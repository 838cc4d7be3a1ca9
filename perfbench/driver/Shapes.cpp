//===- perfbench/driver/Shapes.cpp - Seeded scale shapes ------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Shapes.h"

#include "support/RNG.h"

#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

using lslp::RNG;

namespace {

const char *const OuterOps[] = {"and", "or", "xor"};
const char *const InnerOps[] = {"add", "mul"};

} // namespace

std::string perfbench::wideBlockShape(unsigned Pairs, uint64_t Seed) {
  RNG Rng(Seed);
  std::vector<unsigned> Slot(Pairs);
  std::iota(Slot.begin(), Slot.end(), 0u);
  for (unsigned I = Pairs; I > 1; --I)
    std::swap(Slot[I - 1], Slot[Rng.nextBelow(I)]);

  const unsigned Len = 4 * Pairs;
  const char *const Arrays[] = {"A", "B", "C", "D", "E"};
  std::ostringstream OS;
  OS << "module \"wide" << Pairs << "\"\n\n";
  for (const char *Name : Arrays)
    OS << "global @" << Name << " = [" << Len << " x i64]\n";
  OS << "\ndefine void @f() {\nentry:\n";
  for (unsigned P = 0; P != Pairs; ++P) {
    const char *Op = OuterOps[Rng.nextBelow(3)];
    const char *Ip = InnerOps[Rng.nextBelow(2)];
    const unsigned FlatLane = Rng.nextBelow(2);
    for (unsigned Lane = 0; Lane != 2; ++Lane) {
      const std::string V = "%p" + std::to_string(P) + "l" +
                            std::to_string(Lane) + "_";
      const unsigned Idx = 4 * Slot[P] + Lane;
      for (const char *Name : Arrays) {
        OS << "  " << V << "p" << Name << " = gep i64, ptr @" << Name
           << ", i64 " << Idx << "\n";
        OS << "  " << V << Name << " = load i64, ptr " << V << "p" << Name
           << "\n";
      }
      const bool SwapBC = Rng.nextChance(1, 2);
      OS << "  " << V << "bc = " << Ip << " i64 " << V << (SwapBC ? "C" : "B")
         << ", " << V << (SwapBC ? "B" : "C") << "\n";
      OS << "  " << V << "de = " << Ip << " i64 " << V << "D, " << V
         << "E\n";
      if (Lane == FlatLane) {
        OS << "  " << V << "t = " << Op << " i64 " << V << "A, " << V
           << "bc\n";
        OS << "  " << V << "r = " << Op << " i64 " << V << "t, " << V
           << "de\n";
      } else {
        OS << "  " << V << "t = " << Op << " i64 " << V << "de, " << V
           << "bc\n";
        OS << "  " << V << "r = " << Op << " i64 " << V << "t, " << V
           << "A\n";
      }
      OS << "  store i64 " << V << "r, ptr " << V << "pA\n";
    }
  }
  OS << "  ret void\n}\n";
  return OS.str();
}

namespace {

/// Emits one lane of the tree rooted at heap index \p Node (children 2n and
/// 2n+1; indices >= Leaves are leaves) and returns the value's name.
std::string emitTree(std::ostringstream &OS, unsigned Node, unsigned Leaves,
                     unsigned Lane, unsigned Offset,
                     const std::vector<bool> &IsMul,
                     const std::vector<bool> &Swap) {
  const std::string V =
      "%l" + std::to_string(Lane) + "n" + std::to_string(Node);
  if (Node >= Leaves) {
    const unsigned Idx = 4 * (Node - Leaves) + Offset + Lane;
    OS << "  " << V << "p = gep i64, ptr @L, i64 " << Idx << "\n";
    OS << "  " << V << " = load i64, ptr " << V << "p\n";
    return V;
  }
  std::string Lhs = emitTree(OS, 2 * Node, Leaves, Lane, Offset, IsMul, Swap);
  std::string Rhs =
      emitTree(OS, 2 * Node + 1, Leaves, Lane, Offset, IsMul, Swap);
  if (Lane == 1 && Swap[Node])
    std::swap(Lhs, Rhs);
  OS << "  " << V << " = " << (IsMul[Node] ? "mul" : "add") << " i64 " << Lhs
     << ", " << Rhs << "\n";
  return V;
}

} // namespace

std::string perfbench::deepTreeShape(unsigned Depth, uint64_t Seed) {
  RNG Rng(Seed);
  const unsigned Leaves = 1u << Depth;
  // Opcodes alternate by level and every level below the root swaps
  // exactly half of its nodes: same-opcode chains and the swap count would
  // otherwise change the solver's per-candidate graph size several-fold
  // from seed to seed.
  const bool RootIsMul = Rng.nextChance(1, 2);
  std::vector<bool> IsMul(Leaves), Swap(Leaves);
  for (unsigned First = 1, Level = 0; First != Leaves; First *= 2, ++Level) {
    std::vector<unsigned> Nodes(First);
    std::iota(Nodes.begin(), Nodes.end(), First);
    for (unsigned I = First; I > 1; --I)
      std::swap(Nodes[I - 1], Nodes[Rng.nextBelow(I)]);
    for (unsigned K = 0; K != First; ++K) {
      IsMul[Nodes[K]] = RootIsMul != (Level % 2 == 1);
      Swap[Nodes[K]] = First == 1 ? Rng.nextChance(1, 2) : K < First / 2;
    }
  }
  const unsigned LoadOffset = Rng.nextBelow(3);
  const unsigned StoreOffset = Rng.nextBelow(3);

  std::ostringstream OS;
  OS << "module \"deep" << Depth << "\"\n\n";
  OS << "global @L = [" << 4 * Leaves << " x i64]\n";
  OS << "global @S = [4 x i64]\n";
  OS << "\ndefine void @f() {\nentry:\n";
  for (unsigned Lane = 0; Lane != 2; ++Lane) {
    std::string Root = emitTree(OS, 1, Leaves, Lane, LoadOffset, IsMul, Swap);
    OS << "  %s" << Lane << " = gep i64, ptr @S, i64 " << StoreOffset + Lane
       << "\n";
    OS << "  store i64 " << Root << ", ptr %s" << Lane << "\n";
  }
  OS << "  ret void\n}\n";
  return OS.str();
}
