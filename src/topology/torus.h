/**
 * @file
 * The k-ary n-cube (Torus) topology (paper §IV-B; Dally & Seitz).
 *
 * Settings:
 *   "widths":        [k0, k1, ...] — ring size per dimension
 *   "concentration": uint — terminals per router (default 1)
 *
 * Port layout per router: [0, c) terminal ports, then for dimension d the
 * pair (c + 2d) = +direction neighbor, (c + 2d + 1) = -direction neighbor.
 * Dimensions of width 1 have no links; width-2 rings get two parallel
 * bidirectional links (wrap plus direct).
 */
#ifndef SS_TOPOLOGY_TORUS_H_
#define SS_TOPOLOGY_TORUS_H_

#include <vector>

#include "network/network.h"

namespace ss {

/** The torus network. */
class Torus : public Network {
  public:
    Torus(Simulator* simulator, const std::string& name,
          const Component* parent, const json::Value& settings);

    const std::vector<std::uint64_t>& widths() const { return widths_; }
    std::uint32_t concentration() const { return concentration_; }
    std::uint32_t numDimensions() const
    {
        return static_cast<std::uint32_t>(widths_.size());
    }

    /** Coordinate of router @p router_id in dimension @p dim. */
    std::uint32_t
    coordinate(std::uint32_t router_id, std::uint32_t dim) const
    {
        return coords_[router_id * widths_.size() + dim];
    }
    /** Router id from coordinates. */
    std::uint32_t routerAt(const std::vector<std::uint32_t>& coords) const;
    /** Router serving terminal @p terminal. */
    std::uint32_t routerOfTerminal(std::uint32_t terminal) const;

    /** Port toward the +/- neighbor in @p dim. */
    std::uint32_t portPlus(std::uint32_t dim) const;
    std::uint32_t portMinus(std::uint32_t dim) const;

    std::uint32_t minimalHops(std::uint32_t src,
                              std::uint32_t dst) const override;

  private:
    std::vector<std::uint64_t> widths_;
    /** Router-major coordinate table: router r's coordinate in dimension
     *  d is coords_[r * D + d] (dimension 0 varies fastest in the id),
     *  filled once at construction so routing never divides. */
    std::vector<std::uint32_t> coords_;
    std::uint32_t concentration_;
    std::uint32_t routerCount_;
};

}  // namespace ss

#endif  // SS_TOPOLOGY_TORUS_H_
