#include "circuit/peephole.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace tetris
{

namespace
{

constexpr int kNone = -1;

/** Doubly linked per-wire gate list over a frozen gate vector. */
class WireGraph
{
  public:
    explicit WireGraph(const Circuit &c)
        : gates_(c.gates()), alive_(gates_.size(), true),
          next_(gates_.size(), {kNone, kNone}),
          prev_(gates_.size(), {kNone, kNone})
    {
        std::vector<int> last(c.numQubits(), kNone);
        for (size_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            linkWire(static_cast<int>(i), 0, g.q0, last);
            if (g.isTwoQubit())
                linkWire(static_cast<int>(i), 1, g.q1, last);
        }
    }

    const Gate &gate(int i) const { return gates_[i]; }
    Gate &gate(int i) { return gates_[i]; }
    bool alive(int i) const { return alive_[i]; }
    size_t size() const { return gates_.size(); }

    /** Which wire slot (0/1) of gate i carries qubit q. */
    int
    slotOf(int i, int q) const
    {
        const Gate &g = gates_[i];
        if (g.q0 == q)
            return 0;
        TETRIS_ASSERT(g.isTwoQubit() && g.q1 == q);
        return 1;
    }

    int
    nextOn(int i, int q) const
    {
        return next_[i][slotOf(i, q)];
    }

    int
    prevOn(int i, int q) const
    {
        return prev_[i][slotOf(i, q)];
    }

    /** Unlink gate i from all of its wires and mark it dead. */
    void
    remove(int i)
    {
        TETRIS_ASSERT(alive_[i]);
        const Gate &g = gates_[i];
        unlinkWire(i, 0);
        if (g.isTwoQubit())
            unlinkWire(i, 1);
        alive_[i] = false;
        --live_;
    }

  private:
    void
    linkWire(int i, int slot, int q, std::vector<int> &last)
    {
        prev_[i][slot] = last[q];
        if (last[q] != kNone) {
            int p = last[q];
            next_[p][slotOf(p, q)] = i;
        }
        last[q] = i;
    }

    void
    unlinkWire(int i, int slot)
    {
        int q = slot == 0 ? gates_[i].q0 : gates_[i].q1;
        int p = prev_[i][slot];
        int n = next_[i][slot];
        if (p != kNone)
            next_[p][slotOf(p, q)] = n;
        if (n != kNone)
            prev_[n][slotOf(n, q)] = p;
    }

    std::vector<Gate> gates_;
    std::vector<bool> alive_;
    size_t live_ = gates_.size();
    std::vector<std::array<int, 2>> next_;
    std::vector<std::array<int, 2>> prev_;

  public:
    /** Rebuild a circuit from the surviving gates. */
    Circuit
    toCircuit(int num_qubits) const
    {
        Circuit out(num_qubits);
        out.reserve(live_);
        for (size_t i = 0; i < gates_.size(); ++i) {
            if (alive_[i])
                out.add(gates_[i]);
        }
        return out;
    }
};

/** Diagonal single-qubit gates commute with each other and CX controls. */
bool
isDiagonal1q(GateKind k)
{
    return k == GateKind::RZ || k == GateKind::S || k == GateKind::Sdg;
}

/** X-basis single-qubit gates commute with CX targets. */
bool
isXBasis1q(GateKind k)
{
    return k == GateKind::X || k == GateKind::RX;
}

/** True if kinds a then b on the same wire cancel to identity. */
bool
isInversePair1q(GateKind a, GateKind b)
{
    if (a == GateKind::H && b == GateKind::H)
        return true;
    if (a == GateKind::X && b == GateKind::X)
        return true;
    if (a == GateKind::S && b == GateKind::Sdg)
        return true;
    if (a == GateKind::Sdg && b == GateKind::S)
        return true;
    return false;
}

/**
 * Can the scan for a partner of `moving` (a 1q gate kind on wire q)
 * hop over gate j?
 */
bool
canHop1q(GateKind moving, const Gate &j, int q)
{
    if (j.kind == GateKind::MEASURE || j.kind == GateKind::RESET)
        return false;
    if (isDiagonal1q(moving)) {
        if (j.isOneQubit())
            return isDiagonal1q(j.kind);
        return j.kind == GateKind::CX && j.q0 == q;
    }
    if (isXBasis1q(moving)) {
        if (j.isOneQubit())
            return isXBasis1q(j.kind);
        return j.kind == GateKind::CX && j.q1 == q;
    }
    return false; // H and others: adjacency only.
}

/**
 * Does gate j, acting on wire q, commute with a CX whose control (if
 * role_control) or target (otherwise) is q?
 */
bool
commutesWithCxOnWire(const Gate &j, int q, bool role_control)
{
    if (j.kind == GateKind::MEASURE || j.kind == GateKind::RESET)
        return false;
    if (role_control) {
        if (j.isOneQubit())
            return isDiagonal1q(j.kind);
        return j.kind == GateKind::CX && j.q0 == q;
    }
    if (j.isOneQubit())
        return isXBasis1q(j.kind);
    return j.kind == GateKind::CX && j.q1 == q;
}

double
normalizeAngle(double a)
{
    constexpr double two_pi = 6.283185307179586476925286766559;
    a = std::fmod(a, two_pi);
    if (a > two_pi / 2)
        a -= two_pi;
    if (a < -two_pi / 2)
        a += two_pi;
    return a;
}

class Peephole
{
  public:
    Peephole(const Circuit &in, const PeepholeOptions &opts)
        : graph_(in), opts_(opts), numQubits_(in.numQubits())
    {
    }

    /**
     * Fixpoint over a dirty set. Pass 1 tries every gate; later
     * passes try only the gates markReaders/markChanged flagged. Each
     * pass visits its dirty gates in ascending index order, so the
     * reductions happen in the order a full rescan would make them.
     */
    Circuit
    run(PeepholeStats *stats)
    {
        const size_t n = graph_.size();
        cur_.assign((n + 63) / 64, ~uint64_t{0});
        next_.assign(cur_.size(), 0);
        if (n % 64 != 0)
            cur_.back() = (uint64_t{1} << (n % 64)) - 1;

        bool changed = true;
        int pass = 0;
        while (changed && pass < opts_.maxPasses) {
            changed = false;
            ++pass;
            for (size_t w = 0; w < cur_.size(); ++w) {
                // Re-read the word each step: a reduction may mark a
                // later gate of this same word.
                while (cur_[w] != 0) {
                    cursor_ = static_cast<int>(
                        w * 64 + std::countr_zero(cur_[w]));
                    cur_[w] &= cur_[w] - 1;
                    if (graph_.alive(cursor_) && tryReduce(cursor_))
                        changed = true;
                }
            }
            std::swap(cur_, next_);
        }
        stats_.passes = pass;
        if (stats)
            *stats = stats_;
        return graph_.toCircuit(numQubits_);
    }

  private:
    /**
     * Gate i's next attempt may differ from its last one. A gate after
     * the cursor is still ahead in this pass; one at or before it is
     * retried next pass, as a full rescan would.
     */
    void
    markChanged(int i)
    {
        std::vector<uint64_t> &set = i > cursor_ ? cur_ : next_;
        set[i / 64] |= uint64_t{1} << (i % 64);
    }

    /**
     * Mark every gate whose partner scan can reach gate k, before k
     * is unlinked. k's predecessor on each wire always reads it. A
     * gate further back reads k only if its scan hops every gate in
     * between, within scanWindow gates. A scan along wire q hops
     * exactly the gates of the scanning gate's own class on q:
     * Z-class (diagonal 1q, CX control) or X-class (X-basis 1q, CX
     * target). So the readers are the predecessor plus the run of
     * its class that ends at it.
     */
    void
    markReaders(int k)
    {
        const Gate &g = graph_.gate(k);
        markReadersOn(k, g.q0);
        if (g.isTwoQubit())
            markReadersOn(k, g.q1);
    }

    void
    markReadersOn(int k, int q)
    {
        int p = graph_.prevOn(k, q);
        if (p == kNone)
            return;
        markChanged(p);
        if (!opts_.commutationAware)
            return;
        // commutesWithCxOnWire(g, q, true) is Z-class, false X-class.
        const bool z_class = commutesWithCxOnWire(graph_.gate(p), q, true);
        if (!z_class && !commutesWithCxOnWire(graph_.gate(p), q, false))
            return;
        // The scan from the m-th gate back examines m gates, k last.
        for (int m = 2; m <= opts_.scanWindow; ++m) {
            p = graph_.prevOn(p, q);
            if (p == kNone ||
                !commutesWithCxOnWire(graph_.gate(p), q, z_class))
                return;
            markChanged(p);
        }
    }

    void
    remove(int k)
    {
        markReaders(k);
        graph_.remove(k);
    }

    bool
    tryReduce(int i)
    {
        const Gate g = graph_.gate(i);
        switch (g.kind) {
          case GateKind::H:
          case GateKind::X:
          case GateKind::S:
          case GateKind::Sdg:
            return tryCancel1q(i);
          case GateKind::RZ:
          case GateKind::RX:
            return tryMergeRotation(i);
          case GateKind::CX:
            return tryCancelCx(i);
          case GateKind::SWAP:
            return tryCancelSwap(i);
          default:
            return false;
        }
    }

    bool
    tryCancel1q(int i)
    {
        const Gate &g = graph_.gate(i);
        int q = g.q0;
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.isOneQubit() && isInversePair1q(g.kind, gj.kind)) {
                remove(j);
                remove(i);
                stats_.removedOneQubit += 2;
                return true;
            }
            if (!opts_.commutationAware || !canHop1q(g.kind, gj, q))
                return false;
            j = graph_.nextOn(j, q);
            ++hops;
        }
        return false;
    }

    bool
    tryMergeRotation(int i)
    {
        const Gate &g = graph_.gate(i);
        if (normalizeAngle(g.angle) == 0.0) {
            remove(i);
            stats_.removedOneQubit += 1;
            return true;
        }
        int q = g.q0;
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            Gate &gj = graph_.gate(j);
            if (gj.kind == g.kind && gj.q0 == q) {
                gj.angle = normalizeAngle(gj.angle + g.angle);
                // j's own zero check reads the new angle. A merged
                // angle is already normalized, so that check cannot
                // newly pass today; the mark keeps the dirty set's
                // soundness independent of that fact.
                markChanged(j);
                remove(i);
                ++stats_.mergedRotations;
                if (gj.angle == 0.0) {
                    remove(j);
                    stats_.removedOneQubit += 1;
                }
                return true;
            }
            if (!opts_.commutationAware || !canHop1q(g.kind, gj, q))
                return false;
            j = graph_.nextOn(j, q);
            ++hops;
        }
        return false;
    }

    bool
    tryCancelCx(int i)
    {
        const Gate &g = graph_.gate(i);
        int c = g.q0, t = g.q1;
        // Scan along the control wire for a matching CX.
        int j = graph_.nextOn(i, c);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.kind == GateKind::CX && gj.q0 == c && gj.q1 == t) {
                if (targetWireClear(i, j, t)) {
                    remove(j);
                    remove(i);
                    stats_.removedCx += 2;
                    return true;
                }
                return false;
            }
            if (!opts_.commutationAware ||
                !commutesWithCxOnWire(gj, c, true)) {
                return false;
            }
            j = graph_.nextOn(j, c);
            ++hops;
        }
        return false;
    }

    /**
     * Check that every gate on wire t strictly between gates i and j
     * commutes with a CX targeting t.
     */
    bool
    targetWireClear(int i, int j, int t)
    {
        int k = graph_.nextOn(i, t);
        int hops = 0;
        while (k != kNone && hops < opts_.scanWindow) {
            if (k == j)
                return true;
            if (!opts_.commutationAware ||
                !commutesWithCxOnWire(graph_.gate(k), t, false)) {
                return false;
            }
            k = graph_.nextOn(k, t);
            ++hops;
        }
        return false;
    }

    bool
    tryCancelSwap(int i)
    {
        const Gate &g = graph_.gate(i);
        int j0 = graph_.nextOn(i, g.q0);
        int j1 = graph_.nextOn(i, g.q1);
        if (j0 == kNone || j0 != j1)
            return false;
        const Gate &gj = graph_.gate(j0);
        if (gj.kind != GateKind::SWAP)
            return false;
        bool same_pair = (gj.q0 == g.q0 && gj.q1 == g.q1) ||
                         (gj.q0 == g.q1 && gj.q1 == g.q0);
        if (!same_pair)
            return false;
        remove(j0);
        remove(i);
        stats_.removedSwap += 2;
        return true;
    }

    WireGraph graph_;
    PeepholeOptions opts_;
    int numQubits_;
    PeepholeStats stats_;
    /** Gates to try in this pass (after the cursor) and the next. */
    std::vector<uint64_t> cur_, next_;
    /** The gate this pass is trying; -1 before the first. */
    int cursor_ = -1;
};

} // namespace

Circuit
peepholeOptimize(const Circuit &in, PeepholeStats *stats,
                 const PeepholeOptions &opts)
{
    return Peephole(in, opts).run(stats);
}

} // namespace tetris
