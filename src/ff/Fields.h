#ifndef BZK_FF_FIELDS_H_
#define BZK_FF_FIELDS_H_

/**
 * @file
 * Canonical field aliases used throughout the library.
 */

#include "ff/FieldParams.h"
#include "ff/Fp.h"

namespace bzk {

/** The 256-bit scalar field proofs are generated over (paper setting). */
using Fr = Fp<Bn254FrParams>;

/** The 256-bit base field of BN254 G1 (MSM baseline substrate). */
using Fq = Fp<Bn254FqParams>;

} // namespace bzk

#endif // BZK_FF_FIELDS_H_
