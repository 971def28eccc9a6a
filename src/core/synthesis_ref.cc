#include "core/synthesis_ref.hh"

#include <algorithm>

namespace tetris::synthesis_ref
{

LeafChoice
chooseLeafRef(const CouplingGraph &hw, const Layout &layout,
              const std::vector<int> &pending, std::span<const char> blocked,
              std::span<const char> is_root, double w, bool bridging,
              double num_ps, Arena &arena)
{
    using ScratchInts = std::vector<int, ArenaAllocator<int>>;
    const double bridge_hop_cost = 2.0;
    LeafChoice best;

    auto scan = [&](size_t i, bool free_only) {
        int start = layout.physOf(pending[i]);
        Arena::Frame scan_frame(arena);
        const ArenaAllocator<int> ints(arena);
        ScratchInts parent(hw.numQubits(), -2, ints);
        ScratchInts dist(hw.numQubits(), -1, ints);
        ScratchInts queue(ints);
        queue.reserve(hw.numQubits());
        queue.push_back(start);
        parent[start] = -1;
        dist[start] = 0;
        for (size_t head = 0; head < queue.size(); ++head) {
            int u = queue[head];
            for (int t : hw.neighbors(u)) {
                if (!blocked[t])
                    continue;
                double d = dist[u] + 1;
                double hop = free_only ? bridge_hop_cost : w;
                double score = (d - 1) * hop + (is_root[t] ? 2 * num_ps : 2);
                if (score < best.score) {
                    best.score = score;
                    best.pendingIdx = i;
                    best.target = t;
                    best.bridge = free_only && d > 1;
                    best.path.clear();
                    for (int x = u; x != -1; x = parent[x])
                        best.path.push_back(x);
                    std::reverse(best.path.begin(), best.path.end());
                }
            }
            for (int v : hw.neighbors(u)) {
                if (parent[v] != -2 || blocked[v])
                    continue;
                if (free_only && !layout.isFree(v))
                    continue;
                parent[v] = u;
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    };

    for (size_t i = 0; i < pending.size(); ++i) {
        scan(i, /*free_only=*/false);
        if (bridging)
            scan(i, /*free_only=*/true);
    }
    return best;
}

} // namespace tetris::synthesis_ref
