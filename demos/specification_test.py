"""Testing whether observed proxy factors span the latent factor space.

The statistic is the squared Frobenius distance between the projection
matrices of the observed factors and the diversified factor estimates,
standardized by a plug-in bias and a parametric-bootstrap standard
deviation.  Contaminating the proxies moves the test from acceptance to
overwhelming rejection.
"""
from divproj import SimConfig, generate_panel, rep_rng, sieve_weights, spec_test


def main(seed=11):
    cfg = SimConfig(n_series=200, n_periods=100, n_factors_true=2,
                    alpha_strength=1.0, rho_T=0.0, seed=seed)
    rng = rep_rng(cfg.seed, 0)
    sim = generate_panel(cfg, rng=rng)
    X, F = sim.panel.X, sim.F_true
    W = sieve_weights(sim.z_chars, 2)
    noise = rng.standard_normal(F.shape)

    print("H0: the observed factors span the latent factor space\n")
    print(f"{'contamination':>14}{'statistic':>11}{'mean_hat':>10}{'z':>9}{'p':>9}")
    for gamma in (0.0, 0.1, 0.2, 0.5):
        G = F + gamma * noise
        res = spec_test(X, G, W, seed=seed)
        print(f"{gamma:>14.2f}{res.statistic:>11.4f}{res.mean_hat:>10.4f}"
              f"{res.z:>9.2f}{res.p_value:>9.4f}")
    print("\ngamma = 0 is the null (statistic is pure estimation noise);")
    print("already at gamma = 0.2 the distance is dozens of null deviations out")


if __name__ == "__main__":
    main()
