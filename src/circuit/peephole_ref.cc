#include "circuit/peephole_ref.hh"

#include <array>
#include <cmath>
#include <vector>

#include "common/logging.hh"

namespace tetris::peephole_ref
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
    std::vector<std::array<int, 2>> next_;
    std::vector<std::array<int, 2>> prev_;

  public:
    /** Rebuild a circuit from the surviving gates. */
    Circuit
    toCircuit(int num_qubits) const
    {
        Circuit out(num_qubits);
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

    Circuit
    run(PeepholeStats *stats)
    {
        bool changed = true;
        int pass = 0;
        while (changed && pass < opts_.maxPasses) {
            changed = false;
            ++pass;
            for (int i = 0; i < static_cast<int>(graph_.size()); ++i) {
                if (!graph_.alive(i))
                    continue;
                if (tryReduce(i))
                    changed = true;
            }
        }
        stats_.passes = pass;
        if (stats)
            *stats = stats_;
        return graph_.toCircuit(numQubits_);
    }

  private:
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
                graph_.remove(j);
                graph_.remove(i);
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
            graph_.remove(i);
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
                graph_.remove(i);
                ++stats_.mergedRotations;
                if (gj.angle == 0.0) {
                    graph_.remove(j);
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
                    graph_.remove(j);
                    graph_.remove(i);
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
        graph_.remove(j0);
        graph_.remove(i);
        stats_.removedSwap += 2;
        return true;
    }

    WireGraph graph_;
    PeepholeOptions opts_;
    int numQubits_;
    PeepholeStats stats_;
};

} // namespace

Circuit
peepholeOptimize(const Circuit &in, PeepholeStats *stats,
                 const PeepholeOptions &opts)
{
    return Peephole(in, opts).run(stats);
}

} // namespace tetris::peephole_ref
