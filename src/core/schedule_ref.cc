#include "core/schedule_ref.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace tetris::schedule_ref
{

double
blockSimilarity(const TetrisBlock &a, const TetrisBlock &b)
{
    // Leaf sets are sorted ascending; intersect with matching ops.
    const PauliString &fa = a.block().strings().front();
    const PauliString &fb = b.block().strings().front();
    const auto &la = a.leafSet();
    const auto &lb = b.leafSet();
    size_t common = 0;
    size_t i = 0, j = 0;
    while (i < la.size() && j < lb.size()) {
        if (la[i] < lb[j]) {
            ++i;
        } else if (la[i] > lb[j]) {
            ++j;
        } else {
            if (fa.op(la[i]) == fb.op(lb[j]))
                ++common;
            ++i;
            ++j;
        }
    }
    size_t denom = la.size() + lb.size() - common;
    double eq1 = denom == 0 ? 0.0
                            : static_cast<double>(common) /
                                  static_cast<double>(denom);

    const PauliString &tail = a.block().strings().back();
    const PauliString &head = b.block().strings().front();
    size_t boundary = 0;
    for (size_t q = 0; q < tail.numQubits(); ++q) {
        if (tail.op(q) != PauliOp::I && tail.op(q) == head.op(q))
            ++boundary;
    }
    double tie = static_cast<double>(boundary) /
                 static_cast<double>(tail.numQubits() + 1);
    return eq1 + 1e-3 * tie;
}

std::vector<size_t>
lookaheadOrder(const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw, const TetrisOptions &opts)
{
    std::vector<TetrisBlock> ir;
    for (const auto &b : blocks) {
        ir.emplace_back(opts.reorderStringsInBlock
                            ? reorderForConsecutiveSimilarity(b)
                            : b);
    }
    Layout layout(static_cast<int>(blocks.front().numQubits()),
                  hw.numQubits());
    if (!opts.initialLayout.empty()) {
        auto from = Layout::fromMapping(opts.initialLayout, hw.numQubits());
        TETRIS_ASSERT(from.has_value(), "bad initialLayout");
        layout = *from;
    }
    Circuit circ(hw.numQubits());
    BlockSynthesizer synth(hw, opts.synthesis);
    SynthStats stats;
    std::vector<size_t> order;
    auto synthesize = [&](size_t idx) {
        synth.synthesizeBlock(ir[idx], layout, circ, stats);
        order.push_back(idx);
    };

    std::vector<size_t> remaining(ir.size());
    std::iota(remaining.begin(), remaining.end(), 0);
    size_t first = 0;
    for (size_t i = 1; i < remaining.size(); ++i) {
        if (ir[remaining[i]].activeLength() >
            ir[remaining[first]].activeLength()) {
            first = i;
        }
    }
    size_t last_block = remaining[first];
    remaining.erase(remaining.begin() + first);
    synthesize(last_block);

    const size_t k =
        std::max<size_t>(1, static_cast<size_t>(opts.lookaheadK));
    while (!remaining.empty()) {
        size_t take = std::min(k, remaining.size());
        std::vector<size_t> candidates = remaining;
        // Qualified: ADL would also find tetris::blockSimilarity.
        std::partial_sort(
            candidates.begin(), candidates.begin() + take,
            candidates.end(), [&](size_t a, size_t b) {
                double sa = schedule_ref::blockSimilarity(ir[last_block],
                                                          ir[a]);
                double sb = schedule_ref::blockSimilarity(ir[last_block],
                                                          ir[b]);
                if (sa != sb)
                    return sa > sb;
                return a < b;
            });

        size_t chosen = candidates[0];
        long best_cost = synth.probeRoots(ir[chosen], layout).cost;
        for (size_t i = 1; i < take; ++i) {
            long cost = synth.probeRoots(ir[candidates[i]], layout).cost;
            if (cost < best_cost) {
                best_cost = cost;
                chosen = candidates[i];
            }
        }

        remaining.erase(
            std::find(remaining.begin(), remaining.end(), chosen));
        last_block = chosen;
        synthesize(chosen);
    }
    return order;
}

} // namespace tetris::schedule_ref
