/**
 * @file
 * The tile runtime::interpretTile shades, rebuilt one fragment at a
 * time on the map-based reference engine — the independent side of the
 * tile equivalence tests.
 */
#ifndef GSOPT_TESTS_REFERENCE_TILE_H
#define GSOPT_TESTS_REFERENCE_TILE_H

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "glsl/frontend.h"
#include "ir/interp.h"
#include "runtime/framework.h"

namespace gsopt::testutil {

/**
 * Shade a width x height tile with ir::interpretReference: every float
 * non-array input sweeps u = (x+0.5)/width in component 0 and
 * v = (y+0.5)/height in component 1, and the sums accumulate in
 * row-major fragment order, as runtime::interpretTile specifies.
 */
inline runtime::TileResult
referenceTile(const ir::Module &module,
              const glsl::ShaderInterface &iface, size_t width,
              size_t height)
{
    runtime::TileResult result;
    ir::InterpEnv env = runtime::defaultEnvironment(iface);
    for (size_t y = 0; y < height; ++y) {
        for (size_t x = 0; x < width; ++x) {
            const double u = (static_cast<double>(x) + 0.5) /
                             static_cast<double>(width);
            const double v = (static_cast<double>(y) + 0.5) /
                             static_cast<double>(height);
            for (const auto &in : iface.inputs) {
                const int comps = in.type.componentCount();
                if (in.type.isInt() || in.type.isArray() || comps == 0)
                    continue;
                ir::LaneVector &val = env.inputs[in.name];
                val[0] = u;
                if (comps > 1)
                    val[1] = v;
            }
            const ir::InterpResult frag =
                ir::interpretReference(module, env);
            ++result.fragments;
            result.executedInstructions += frag.executedInstructions;
            if (frag.discarded)
                ++result.discardedFragments;
            for (const auto &[name, lanes] : frag.outputs) {
                ir::LaneVector &sum = result.outputSums[name];
                sum.resize(std::max(sum.size(), lanes.size()), 0.0);
                for (size_t c = 0; c < lanes.size(); ++c) {
                    sum[c] += lanes[c];
                    if (!frag.discarded && !std::isfinite(lanes[c]))
                        result.allFinite = false;
                }
            }
        }
    }
    return result;
}

} // namespace gsopt::testutil

#endif // GSOPT_TESTS_REFERENCE_TILE_H
