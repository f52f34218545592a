#include "topology/torus.h"

#include "json/settings.h"

namespace ss {

Torus::Torus(Simulator* simulator, const std::string& name,
             const Component* parent, const json::Value& settings)
    : Network(simulator, name, parent, settings)
{
    widths_ = json::getUintVector(settings, "widths");
    concentration_ = static_cast<std::uint32_t>(
        json::getUint(settings, "concentration", 1));
    checkUser(!widths_.empty(), "torus needs at least one dimension");
    checkUser(concentration_ > 0, "torus concentration must be > 0");
    std::uint64_t routers = 1;
    for (std::uint64_t w : widths_) {
        checkUser(w >= 1, "torus widths must be >= 1");
        routers *= w;
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
    std::uint32_t radix = concentration_ +
                          2 * static_cast<std::uint32_t>(widths_.size());

    for (std::uint32_t r = 0; r < routerCount_; ++r) {
        makeRouter(strf("router_", r), r, radix, standardRoutingFactory());
    }
    std::uint32_t terminals = routerCount_ * concentration_;
    for (std::uint32_t t = 0; t < terminals; ++t) {
        Interface* iface = makeInterface(t);
        linkInterface(iface, router(t / concentration_),
                      t % concentration_, terminalLatency());
    }

    // Ring links: for each router, wire the adjacency to its +neighbor
    // in each dimension (both directions of that adjacency).
    for (std::uint32_t r = 0; r < routerCount_; ++r) {
        for (std::uint32_t d = 0; d < widths_.size(); ++d) {
            std::uint64_t k = widths_[d];
            if (k < 2) {
                continue;
            }
            std::vector<std::uint32_t> coords(widths_.size());
            for (std::uint32_t dd = 0; dd < widths_.size(); ++dd) {
                coords[dd] = coordinate(r, dd);
            }
            coords[d] = static_cast<std::uint32_t>((coords[d] + 1) % k);
            std::uint32_t nb = routerAt(coords);
            linkRouters(router(r), portPlus(d), router(nb), portMinus(d),
                        channelLatency());
            linkRouters(router(nb), portMinus(d), router(r), portPlus(d),
                        channelLatency());
        }
    }
    finalizeRouters();
}

std::uint32_t
Torus::routerAt(const std::vector<std::uint32_t>& coords) const
{
    std::uint64_t id = 0;
    std::uint64_t stride = 1;
    for (std::uint32_t d = 0; d < widths_.size(); ++d) {
        id += coords[d] * stride;
        stride *= widths_[d];
    }
    return static_cast<std::uint32_t>(id);
}

std::uint32_t
Torus::routerOfTerminal(std::uint32_t terminal) const
{
    return terminal / concentration_;
}

std::uint32_t
Torus::portPlus(std::uint32_t dim) const
{
    return concentration_ + 2 * dim;
}

std::uint32_t
Torus::portMinus(std::uint32_t dim) const
{
    return concentration_ + 2 * dim + 1;
}

std::uint32_t
Torus::minimalHops(std::uint32_t src, std::uint32_t dst) const
{
    std::uint32_t rs = routerOfTerminal(src);
    std::uint32_t rd = routerOfTerminal(dst);
    std::uint32_t hops = 1;  // the source router itself
    for (std::uint32_t d = 0; d < widths_.size(); ++d) {
        std::uint32_t a = coordinate(rs, d);
        std::uint32_t b = coordinate(rd, d);
        std::uint32_t delta = a > b ? a - b : b - a;
        std::uint32_t k = static_cast<std::uint32_t>(widths_[d]);
        hops += std::min(delta, k - delta);
    }
    return hops;
}

SS_REGISTER(NetworkFactory, "torus", Torus);

}  // namespace ss
