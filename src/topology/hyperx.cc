#include "topology/hyperx.h"

#include "json/settings.h"

namespace ss {

HyperX::HyperX(Simulator* simulator, const std::string& name,
               const Component* parent, const json::Value& settings)
    : Network(simulator, name, parent, settings)
{
    widths_ = json::getUintVector(settings, "widths");
    concentration_ = static_cast<std::uint32_t>(
        json::getUint(settings, "concentration", 1));
    checkUser(!widths_.empty(), "hyperx needs at least one dimension");
    checkUser(concentration_ > 0, "hyperx concentration must be > 0");
    std::uint64_t routers = 1;
    std::uint32_t radix = concentration_;
    dimPortBase_.resize(widths_.size());
    for (std::uint32_t d = 0; d < widths_.size(); ++d) {
        checkUser(widths_[d] >= 2, "hyperx widths must be >= 2");
        dimPortBase_[d] = radix;
        radix += static_cast<std::uint32_t>(widths_[d]) - 1;
        routers *= widths_[d];
    }
    routerCount_ = static_cast<std::uint32_t>(routers);
    coords_.resize(static_cast<std::size_t>(routerCount_) * widths_.size());
    for (std::uint32_t r = 0; r < routerCount_; ++r) {
        std::uint64_t v = r;
        for (std::uint32_t d = 0; d < widths_.size(); ++d) {
            coords_[r * widths_.size() + d] =
                static_cast<std::uint32_t>(v % widths_[d]);
            v /= widths_[d];
        }
    }

    for (std::uint32_t r = 0; r < routerCount_; ++r) {
        makeRouter(strf("router_", r), r, radix, standardRoutingFactory());
    }
    std::uint32_t terminals = routerCount_ * concentration_;
    for (std::uint32_t t = 0; t < terminals; ++t) {
        Interface* iface = makeInterface(t);
        linkInterface(iface, router(t / concentration_),
                      t % concentration_, terminalLatency());
    }

    // Full connectivity within each dimension: wire each unordered pair
    // once, both directions.
    for (std::uint32_t r = 0; r < routerCount_; ++r) {
        for (std::uint32_t d = 0; d < widths_.size(); ++d) {
            std::uint32_t a = coordinate(r, d);
            std::uint64_t stride = 1;
            for (std::uint32_t dd = 0; dd < d; ++dd) {
                stride *= widths_[dd];
            }
            for (std::uint32_t j = a + 1; j < widths_[d]; ++j) {
                auto nb = static_cast<std::uint32_t>(
                    r + (j - a) * stride);
                linkRouters(router(r), portToward(r, d, j), router(nb),
                            portToward(nb, d, a), channelLatency());
                linkRouters(router(nb), portToward(nb, d, a), router(r),
                            portToward(r, d, j), channelLatency());
            }
        }
    }
    finalizeRouters();
}

std::uint32_t
HyperX::routerOfTerminal(std::uint32_t terminal) const
{
    return terminal / concentration_;
}

std::uint32_t
HyperX::portToward(std::uint32_t router_id, std::uint32_t dim,
                   std::uint32_t coord) const
{
    std::uint32_t own = coordinate(router_id, dim);
    checkSim(coord != own, "portToward own coordinate");
    checkSim(coord < widths_[dim], "portToward coordinate out of range");
    return dimPortBase_[dim] + (coord < own ? coord : coord - 1);
}

std::uint32_t
HyperX::routerDistance(std::uint32_t a, std::uint32_t b) const
{
    const std::size_t dims = widths_.size();
    const std::uint32_t* ca = &coords_[a * dims];
    const std::uint32_t* cb = &coords_[b * dims];
    std::uint32_t hops = 0;
    for (std::size_t d = 0; d < dims; ++d) {
        hops += static_cast<std::uint32_t>(ca[d] != cb[d]);
    }
    return hops;
}

std::uint32_t
HyperX::minimalHops(std::uint32_t src, std::uint32_t dst) const
{
    return 1 + routerDistance(routerOfTerminal(src),
                              routerOfTerminal(dst));
}

SS_REGISTER(NetworkFactory, "hyperx", HyperX);

}  // namespace ss
