#ifndef BZK_BASELINE_OLDPROTOCOL_H_
#define BZK_BASELINE_OLDPROTOCOL_H_

/**
 * @file
 * The "first category" baseline provers of the paper's Figure 1:
 * Groth16-shaped pipelines dominated by NTT and MSM, standing in for
 * Libsnark (CPU) and Bellperson (GPU) in Tables 7, 8 and 10.
 *
 * Work shape per proof for a circuit with S = 2^log_gates gates:
 *  - constraint synthesis / witness assignment on the host;
 *  - 7 radix-2 (i)NTTs of size 2S over Fr (the quotient polynomial);
 *  - 3 G1 MSMs of size S plus one G2-weight MSM (~2x a G1 MSM).
 *
 * The CPU prover measures our real NTT and Pippenger implementations at
 * a capped size and extrapolates by operation count (documented). It
 * measures each capped size once per object and reuses those unit
 * costs, so two runs that share a measured size differ by the operation
 * counts alone, not by timing noise. The
 * GPU prover charges the simulated device with the intuitive
 * one-proof-at-a-time kernels Bellperson uses; its host-side synthesis
 * cost is the documented calibration constant that reproduces
 * Bellperson's published latency profile.
 */

#include <cstddef>
#include <map>

#include "gpusim/BatchStats.h"
#include "gpusim/Device.h"
#include "util/Rng.h"

namespace bzk {

/** Timing breakdown of one old-protocol proof (Table 7 left half). */
struct OldProtocolResult
{
    gpusim::BatchStats stats;
    /** Amortized per-proof times, ms. */
    double synthesis_ms = 0.0;
    double ntt_ms = 0.0;
    double msm_ms = 0.0;
    double proof_ms = 0.0;
};

/** Libsnark-style CPU Groth16 prover (measured + extrapolated). */
class LibsnarkLikeCpu
{
  public:
    /**
     * @param measure_cap_log largest log-size actually measured; larger
     *        requests extrapolate by operation count.
     */
    explicit LibsnarkLikeCpu(unsigned measure_cap_log = 14)
        : cap_log_(measure_cap_log)
    {
    }

    /** Prove @p batch circuits of 2^log_gates gates each. */
    OldProtocolResult run(size_t batch, unsigned log_gates, Rng &rng);

  private:
    /** Measured host cost of one unit of each stage, ms. */
    struct UnitCosts
    {
        double gate_ms = 0.0;
        double butterfly_ms = 0.0;
        double point_add_ms = 0.0;
    };

    /**
     * The unit costs at measured log-size @p log_size: timed on the
     * first call for that size, then reused.
     */
    const UnitCosts &unitCosts(unsigned log_size, Rng &rng);

    unsigned cap_log_;
    std::map<unsigned, UnitCosts> unit_costs_;
};

/** Bellperson-style GPU Groth16 prover on the simulated device. */
class BellpersonLikeGpu
{
  public:
    explicit BellpersonLikeGpu(gpusim::Device &dev) : dev_(dev) {}

    /** @copydoc LibsnarkLikeCpu::run */
    OldProtocolResult run(size_t batch, unsigned log_gates, Rng &rng);

  private:
    gpusim::Device &dev_;
};

} // namespace bzk

#endif // BZK_BASELINE_OLDPROTOCOL_H_
