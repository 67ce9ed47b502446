#!/usr/bin/env python3
"""Density reconstruction shoot-out: CIC grid vs DTFE vs Voronoi cells.

The paper's background (§II-A) argues that tessellation-based density
estimators adapt to the anisotropic particle distribution where fixed grids
cannot.  This example reconstructs the density of an evolved snapshot three
ways and reports how each resolves a dense halo and an empty void, then
finds the voids of the same snapshot the paper's way: connected components
of large Voronoi cells.

Run:  python examples/density_estimators.py
"""

import numpy as np

from repro.hacc import SimulationConfig, run_simulation
from repro.hacc.mesh import cic_deposit
from repro.core import tessellate
from repro.analysis import dtfe_density, find_voids, voronoi_density


def main() -> None:
    cfg = SimulationConfig(np_side=16, nsteps=50, seed=9)
    print(f"Evolving {cfg.np_side}^3 particles for {cfg.nsteps} steps...")
    final = run_simulation(cfg, nranks=2)
    pos = final.positions * cfg.cell_size
    domain = cfg.domain()

    # --- three density estimates at the particles -----------------------
    cic = cic_deposit(final.positions, cfg.mesh_size)  # mean 1 per cell
    mean_rho = len(pos) / domain.volume
    rho_dtfe = dtfe_density(pos, domain=domain)
    tess = tessellate(pos, domain, nblocks=2, ghost=4.0, ids=final.ids)
    ids, rho_voro = voronoi_density(tess)

    # Align both adaptive estimates by particle id: rho_dtfe is per
    # position row; Voronoi densities come back keyed by site id.
    rho_voro_by_id = rho_voro[np.argsort(ids)]  # ascending id
    rho_dtfe_by_id = rho_dtfe[np.argsort(final.ids)]  # ascending id

    print("\nPeak density relative to the mean (how deep each estimator")
    print("resolves the densest halo):")
    print(f"  CIC grid ({cfg.mesh_size}^3):  {cic.max() / cic.mean():10.0f}x")
    print(f"  DTFE:             {np.nanmax(rho_dtfe) / mean_rho:10.0f}x")
    print(f"  Voronoi cells:    {rho_voro.max() / mean_rho:10.0f}x")
    print("(adaptive estimators resolve far deeper contrasts than the grid)")

    ratio = rho_voro_by_id / rho_dtfe_by_id
    ratio = ratio[np.isfinite(ratio)]
    print(
        f"\nDTFE vs Voronoi density per particle: median ratio "
        f"{np.median(ratio):.2f}, 10-90% [{np.quantile(ratio, 0.1):.2f}, "
        f"{np.quantile(ratio, 0.9):.2f}]"
    )

    # --- the paper's void finder on the same snapshot --------------------
    cat = find_voids(tess, min_cells=3)
    print(f"\nVoronoi-threshold voids (paper's method): {cat.num_voids} "
          f"(vmin = {cat.vmin:.3f})")


if __name__ == "__main__":
    main()
