#include "core/tetris_ir.hh"

#include <bit>
#include <cctype>
#include <sstream>

#include "common/logging.hh"

namespace tetris
{

TetrisBlock::TetrisBlock(PauliBlock block) : block_(std::move(block))
{
    leafSet_ = block_.commonQubits();
    rootSet_ = block_.rootQubits();
    // The root set is the support minus the leaf set.
    activeLength_ = leafSet_.size() + rootSet_.size();

    const PauliString &first = block_.strings().front();
    words_ = first.numWords();
    planes_.assign(4 * words_, 0);
    uint64_t *mask = planes_.data();
    uint64_t *lx = mask + words_;
    uint64_t *lz = lx + words_;
    uint64_t *root = lz + words_;
    for (size_t q : leafSet_) {
        const uint64_t bit = uint64_t{1} << (q & 63);
        mask[q >> 6] |= bit;
        lx[q >> 6] |= first.xWords()[q >> 6] & bit;
        lz[q >> 6] |= first.zWords()[q >> 6] & bit;
    }
    for (size_t q : rootSet_)
        root[q >> 6] |= uint64_t{1} << (q & 63);
}

PauliOp
TetrisBlock::leafOp(size_t qubit) const
{
    const size_t word = qubit >> 6;
    const unsigned bit = qubit & 63;
    TETRIS_ASSERT(word < words_ && ((leafMask()[word] >> bit) & 1),
                  "not a leaf qubit");
    return pauliFromBits(leafX()[word] >> bit, leafZ()[word] >> bit);
}

bool
TetrisBlock::hasUniformRootSupport() const
{
    // Every string must cover the root mask; one masked word scan per
    // string.
    const uint64_t *root = rootMask();
    for (const auto &s : block_.strings()) {
        for (size_t i = 0; i < words_; ++i) {
            if ((root[i] & ~(s.xWords()[i] | s.zWords()[i])) != 0)
                return false;
        }
    }
    return true;
}

std::string
TetrisBlock::toText() const
{
    // Qubit order annotation: root qubits first, then leaf qubits.
    std::ostringstream os;
    os << "{ ";
    for (size_t q : rootSet_)
        os << q << " ";
    os << "| ";
    for (size_t q : leafSet_)
        os << q << " ";
    os << ", {";
    for (size_t i = 0; i < block_.size(); ++i) {
        const auto &s = block_.string(i);
        os << (i ? ", " : "");
        for (size_t q : rootSet_)
            os << pauliChar(s.op(q));
        // Interior strings elide the common section; boundary strings
        // render it lower-case (the cancellable peripheral section).
        if (i == 0 || i + 1 == block_.size()) {
            for (size_t q : leafSet_) {
                os << static_cast<char>(
                    std::tolower(pauliChar(s.op(q))));
            }
        }
    }
    os << "}, theta=" << block_.theta() << " }";
    return os.str();
}

double
blockSimilarity(const TetrisBlock &a, const TetrisBlock &b)
{
    TETRIS_ASSERT(a.numWords() == b.numWords(),
                  "similarity of blocks on different qubit counts");
    // |C|: leaf qubits of both blocks whose (x, z) pairs agree.
    size_t common = 0;
    for (size_t i = 0; i < a.numWords(); ++i) {
        const uint64_t same = ~(a.leafX()[i] ^ b.leafX()[i]) &
                              ~(a.leafZ()[i] ^ b.leafZ()[i]);
        common += static_cast<size_t>(
            std::popcount(a.leafMask()[i] & b.leafMask()[i] & same));
    }
    size_t denom = a.leafSet().size() + b.leafSet().size() - common;
    double eq1 = denom == 0 ? 0.0
                            : static_cast<double>(common) /
                                  static_cast<double>(denom);

    // Tie-break with boundary-string similarity: when leaf sets are
    // uninformative (e.g. Bravyi-Kitaev blocks), adjacency of blocks
    // whose boundary strings share operators still enables peephole
    // cancellation. Scaled so it can never override Eq. 1.
    const PauliString &tail = a.block().strings().back();
    const PauliString &head = b.block().strings().front();
    size_t boundary = PauliBlock::commonOperatorCount(tail, head);
    double tie = static_cast<double>(boundary) /
                 static_cast<double>(tail.numQubits() + 1);
    return eq1 + 1e-3 * tie;
}

PauliBlock
reorderForConsecutiveSimilarity(const PauliBlock &block)
{
    const size_t n = block.size();
    if (n <= 2)
        return block;

    // Reordering changes the rotation product order, which is only
    // semantics-preserving when the strings mutually commute (true
    // for UCCSD excitation blocks); otherwise pass through.
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            if (!block.string(i).commutesWith(block.string(j)))
                return block;
        }
    }

    auto common = [&](size_t i, size_t j) {
        return PauliBlock::commonOperatorCount(block.string(i),
                                               block.string(j));
    };

    std::vector<size_t> order{0};
    std::vector<bool> used(n, false);
    used[0] = true;
    while (order.size() < n) {
        size_t last = order.back();
        size_t best = n;
        size_t best_common = 0;
        for (size_t j = 0; j < n; ++j) {
            if (used[j])
                continue;
            size_t c = common(last, j);
            if (best == n || c > best_common) {
                best = j;
                best_common = c;
            }
        }
        used[best] = true;
        order.push_back(best);
    }

    std::vector<PauliString> strings;
    std::vector<double> weights;
    strings.reserve(n);
    weights.reserve(n);
    for (size_t idx : order) {
        strings.push_back(block.string(idx));
        weights.push_back(block.weight(idx));
    }
    return PauliBlock(std::move(strings), std::move(weights),
                      block.theta());
}

std::vector<TetrisBlock>
buildTetrisIr(const std::vector<PauliBlock> &blocks)
{
    std::vector<TetrisBlock> out;
    out.reserve(blocks.size());
    for (const auto &b : blocks)
        out.emplace_back(b);
    return out;
}

} // namespace tetris
