/**
 * @file
 * The HyperX topology (paper §IV-B; Ahn et al.): L dimensions, each fully
 * connected. Covers the hypercube (all widths 2), the flattened butterfly
 * (including the paper's §VI-B 1-D flattened butterfly: one dimension of
 * R fully connected routers), and general HyperX shapes.
 *
 * Settings:
 *   "widths":        [S0, S1, ...] — routers per dimension (each >= 2)
 *   "concentration": uint — terminals per router (default 1)
 *
 * Port layout per router at coordinate a: [0, c) terminals, then for
 * dimension d the S_d - 1 ports to the other coordinates j of that
 * dimension at index base_d + (j < a_d ? j : j - 1).
 */
#ifndef SS_TOPOLOGY_HYPERX_H_
#define SS_TOPOLOGY_HYPERX_H_

#include <vector>

#include "network/network.h"

namespace ss {

/** The HyperX / flattened butterfly network. */
class HyperX : public Network {
  public:
    HyperX(Simulator* simulator, const std::string& name,
           const Component* parent, const json::Value& settings);

    const std::vector<std::uint64_t>& widths() const { return widths_; }
    std::uint32_t concentration() const { return concentration_; }
    std::uint32_t numDimensions() const
    {
        return static_cast<std::uint32_t>(widths_.size());
    }
    std::uint32_t numRouterNodes() const { return routerCount_; }

    /** Coordinate of router @p router_id in dimension @p dim. */
    std::uint32_t
    coordinate(std::uint32_t router_id, std::uint32_t dim) const
    {
        return coords_[router_id * widths_.size() + dim];
    }
    std::uint32_t routerOfTerminal(std::uint32_t terminal) const;

    /** Port on @p router_id toward coordinate @p coord of @p dim (the
     *  coordinate must differ from the router's own). */
    std::uint32_t portToward(std::uint32_t router_id, std::uint32_t dim,
                             std::uint32_t coord) const;

    std::uint32_t minimalHops(std::uint32_t src,
                              std::uint32_t dst) const override;

    /** Router-to-router minimal hop distance (#differing dimensions). */
    std::uint32_t routerDistance(std::uint32_t a, std::uint32_t b) const;

  private:
    std::vector<std::uint64_t> widths_;
    /** Router-major coordinate table: router r's coordinate in dimension
     *  d is coords_[r * D + d] (dimension 0 varies fastest in the id),
     *  filled once at construction so routing never divides. */
    std::vector<std::uint32_t> coords_;
    std::vector<std::uint32_t> dimPortBase_;
    std::uint32_t concentration_;
    std::uint32_t routerCount_;
};

}  // namespace ss

#endif  // SS_TOPOLOGY_HYPERX_H_
