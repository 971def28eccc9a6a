#include "circuit/circuit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tetris
{

void
Circuit::rejectGate(int q0, int q1) const
{
    TETRIS_ASSERT(q0 >= 0 && q0 < numQubits_, "qubit out of range");
    TETRIS_ASSERT(q1 >= 0 && q1 < numQubits_, "qubit out of range");
    TETRIS_ASSERT(q0 != q1, "two-qubit gate on one wire");
    panic("rejectGate called on an in-range gate");
}

void
Circuit::append(const Circuit &other)
{
    TETRIS_ASSERT(other.numQubits_ <= numQubits_,
                  "appended circuit is wider than the register");
    gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

size_t
Circuit::cnotCount() const
{
    size_t n = 0;
    for (const auto &g : gates_) {
        if (g.kind == GateKind::CX)
            n += 1;
        else if (g.kind == GateKind::SWAP)
            n += 3;
    }
    return n;
}

size_t
Circuit::swapCount() const
{
    size_t n = 0;
    for (const auto &g : gates_) {
        if (g.kind == GateKind::SWAP)
            ++n;
    }
    return n;
}

size_t
Circuit::oneQubitCount() const
{
    size_t n = 0;
    for (const auto &g : gates_) {
        if (g.isOneQubit())
            ++n;
    }
    return n;
}

size_t
Circuit::totalGateCount() const
{
    return cnotCount() + oneQubitCount();
}

size_t
Circuit::depth() const
{
    std::vector<size_t> level(numQubits_, 0);
    size_t max_level = 0;
    for (const auto &g : gates_) {
        size_t cost = g.kind == GateKind::SWAP ? 3 : 1;
        size_t start = level[g.q0];
        if (g.isTwoQubit())
            start = std::max(start, level[g.q1]);
        size_t end = start + cost;
        level[g.q0] = end;
        if (g.isTwoQubit())
            level[g.q1] = end;
        max_level = std::max(max_level, end);
    }
    return max_level;
}

double
Circuit::duration(const DurationModel &model) const
{
    std::vector<double> time(numQubits_, 0.0);
    double max_time = 0.0;
    for (const auto &g : gates_) {
        double start = time[g.q0];
        if (g.isTwoQubit())
            start = std::max(start, time[g.q1]);
        double end = start + model.of(g);
        time[g.q0] = end;
        if (g.isTwoQubit())
            time[g.q1] = end;
        max_time = std::max(max_time, end);
    }
    return max_time;
}

Circuit
Circuit::inverse() const
{
    Circuit inv(numQubits_);
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
        Gate g = *it;
        switch (g.kind) {
          case GateKind::S:
            g.kind = GateKind::Sdg;
            break;
          case GateKind::Sdg:
            g.kind = GateKind::S;
            break;
          case GateKind::RZ:
          case GateKind::RX:
            g.angle = -g.angle;
            break;
          case GateKind::MEASURE:
          case GateKind::RESET:
            panic("cannot invert a circuit containing measure/reset");
          default:
            break;
        }
        inv.gates_.push_back(g);
    }
    return inv;
}

Circuit
Circuit::withSwapsDecomposed() const
{
    Circuit out(numQubits_);
    for (const auto &g : gates_) {
        if (g.kind == GateKind::SWAP) {
            out.cx(g.q0, g.q1);
            out.cx(g.q1, g.q0);
            out.cx(g.q0, g.q1);
        } else {
            out.add(g);
        }
    }
    return out;
}

} // namespace tetris
