/**
 * @file
 * Tetris-IR: the refined Pauli-string block representation.
 *
 * A TetrisBlock annotates a PauliBlock with the root-tree-qubit-set
 * and leaf-tree-qubit-set split (Sec. IV-A of the paper) plus the
 * derived quantities the scheduler needs (active length, leaf
 * operators, the Eq. 1 similarity). The leaf set is also kept as
 * bit-planes (mask plus the shared operator's X and Z bits), so the
 * similarity is a few popcounts per 64 qubits and a leaf lookup is
 * one bit test. The textual rendering follows
 * Fig. 6: qubits reordered root-first, the common section lower-case
 * and elided on interior strings.
 */

#ifndef TETRIS_CORE_TETRIS_IR_HH
#define TETRIS_CORE_TETRIS_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_block.hh"

namespace tetris
{

/** A Pauli block with its root/leaf qubit-set split. */
class TetrisBlock
{
  public:
    /** Derive root and leaf sets from the block's common operators. */
    explicit TetrisBlock(PauliBlock block);

    const PauliBlock &block() const { return block_; }
    size_t numStrings() const { return block_.size(); }

    /** Qubits whose operator differs across strings (root set). */
    const std::vector<size_t> &rootSet() const { return rootSet_; }

    /** Qubits with one common operator across all strings (leaf set). */
    const std::vector<size_t> &leafSet() const { return leafSet_; }

    /** The shared operator on a leaf qubit. */
    PauliOp leafOp(size_t qubit) const;

    /** Words per bit-plane (64 qubits each). */
    size_t numWords() const { return words_; }

    /** Leaf-set mask; bit q set iff q is a leaf qubit. */
    const uint64_t *leafMask() const { return planes_.data(); }

    /** X and Z bits of the shared leaf operators (0 off the leaf set). */
    const uint64_t *leafX() const { return planes_.data() + words_; }
    const uint64_t *leafZ() const { return planes_.data() + 2 * words_; }

    /** Union-support size (the scheduler's active length). */
    size_t activeLength() const { return activeLength_; }

    /**
     * True when every string has a non-identity operator on every
     * root qubit; the block-level cancellation emission requires
     * this (always holds for UCCSD and QAOA inputs; the compiler
     * falls back to per-string synthesis otherwise).
     */
    bool hasUniformRootSupport() const;

    /** Render the block in Tetris-IR text form (Fig. 6 style). */
    std::string toText() const;

  private:
    const uint64_t *rootMask() const { return planes_.data() + 3 * words_; }

    PauliBlock block_;
    std::vector<size_t> rootSet_;
    std::vector<size_t> leafSet_;
    size_t activeLength_;
    size_t words_;
    /** Leaf mask, leaf X, leaf Z and root mask, words_ words each. */
    std::vector<uint64_t> planes_;
};

/**
 * Eq. 1: |C| / (|LT1| + |LT2| - |C|) where C counts leaf qubits the
 * two blocks share with identical operators, plus a boundary-string
 * tie-break scaled below Eq. 1's resolution. C is counted on the leaf
 * bit-planes; both blocks must span the same number of qubits.
 */
double blockSimilarity(const TetrisBlock &a, const TetrisBlock &b);

/** Wrap a list of Pauli blocks into TetrisBlocks. */
std::vector<TetrisBlock> buildTetrisIr(const std::vector<PauliBlock> &);

/**
 * Tetris-IR-recursive enabler (the paper's Sec. IV-B1 "future
 * work"): reorder the strings of a block so consecutive strings
 * share as many operators as possible (greedy nearest-neighbor
 * chain). The block-level root/leaf split is order-independent, but
 * the recursive cancellation opportunities between consecutive
 * strings -- harvested by the peephole pass on the re-emitted root
 * section -- grow with consecutive similarity.
 */
PauliBlock reorderForConsecutiveSimilarity(const PauliBlock &block);

} // namespace tetris

#endif // TETRIS_CORE_TETRIS_IR_HH
