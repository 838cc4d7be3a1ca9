//===- perfbench/driver/Shapes.h - Seeded scale shapes ----------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own input generators. Each returns the textual IR of one
/// module holding a single `void @f()` over global arrays. The seed picks
/// opcodes, operand orders and offsets; the size arguments alone fix the
/// instruction count and the dependence structure, so the compile cost of a
/// shape stays the same across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef LSLP_PERFBENCH_SHAPES_H
#define LSLP_PERFBENCH_SHAPES_H

#include <cstdint>
#include <string>

namespace perfbench {

/// One basic block of \p Pairs Figure-4 lane pairs (about 28 instructions
/// per pair). Lane 0 of a pair computes (A op (B ip C)) op (D ip E) and lane
/// 1 the same values re-associated, ((D ip E) op (B ip C)) op A, so only
/// multi-node formation recovers the isomorphism. The seed picks the outer
/// chain opcode (and/or/xor), the inner opcode (add/mul), which lane gets
/// which association, inner operand swaps, and the slot order of the pairs
/// in memory. Pairs sit four elements apart, so every store seed is exactly
/// one pair wide.
std::string wideBlockShape(unsigned Pairs, uint64_t Seed);

/// Two lanes, each a balanced binary add/mul tree of depth \p Depth over
/// 2^Depth loads, stored to two adjacent elements. Opcodes alternate by
/// level and both lanes share them; lane 1 swaps the commutative operands
/// of exactly half the nodes of each level, which is what the reordering
/// (greedy or global) has to undo. The seed picks the root opcode, which
/// nodes are swapped, and the element offsets.
std::string deepTreeShape(unsigned Depth, uint64_t Seed);

} // namespace perfbench

#endif // LSLP_PERFBENCH_SHAPES_H
