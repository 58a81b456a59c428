"""Workloads: one `selkam` command on a config made from the workload seed.

Seed 0 gives the configs the workloads are named after.  Any other seed
draws the free parameter from the range an acceptance criterion in
`tests/test_acceptance.py` already uses, so a claim can be rechecked on a
seed not used while the change was written (on weakkam-*; whorl-selector
has only nine draws):

- whorl-selector: the initial graph potential `v`, three Fourier modes with
  coefficients uniform in +-0.05/k (criterion 1's `_random_potential`),
  kept when max |v'| lies in SLOPE_BAND.  Seeds other than 0 cycle through
  the WHORL_DRAWS potentials of seeds 1-9 (see WHORL_DRAWS for why).
- weakkam-pendulum, weakkam-nonmech: a second-harmonic amplitude c of
  cos(4*pi*q) in H, uniform in [0.2, 0.3] (the amplitudes criterion 4 uses).
"""

from dataclasses import dataclass

import numpy as np

CONFIG = """[hamiltonian]
expr = {expr}
dim = 1

[lagrangian]
kind = flowed
v = {v}
T = 3.0
steps = 3000

[grids]
base = 512
lattice = 512
velocity = 1024
samples = 4096

[run]
seed = 0
dt = 0.1
horizon = 100
"""

# velocity grid of CONFIG: Aubry and Mane points are matched within 2 steps
VELOCITY_STEP = 1.0 / 1024

# Band of max |v'| kept for whorl-selector.  `build_discrete_action` sizes
# the momentum fan from max |v'| on its 512-point grid; inside this band every
# seed but 0 gets the same fan (512 x 693), so run-to-run spread is not
# seed-to-seed cost.  Draws outside it are redrawn from the same stream,
# which keeps v inside criterion 1's range.
SLOPE_BAND = (0.45, 0.75)

# whorl-selector draws v only from the potentials of seeds 1-9; seed n > 0
# uses that of 1 + (n - 1) % WHORL_DRAWS.  About one draw in seven from the
# whole criterion-1 range fails the program's own Lipschitz check (a known
# defect of `graph_selector`, see README.md), and a benchmark operation must
# not fail.  Seeds 1-9 are the first nine draws, none skipped, all passing,
# and their outputs are recorded in references/, so every whorl-selector
# operation is also checked against the seed commit's values.
WHORL_DRAWS = 9


@dataclass(frozen=True)
class Instance:
    """One workload at one seed: the command, its config and what it must give.

    For the weak-KAM workloads H = p^2/2 + s(q) p + V(q) with
    s = drift*sin(2*pi*q) and V = cos1*cos(2*pi*q) + cos2*cos(4*pi*q).
    The p-linear term is an exact shift, so alpha = max_q (V - s^2/2) and the
    Aubry set is the point (q*, -s(q*)) at that maximum.
    """

    workload: str
    seed: int
    draw: int     # seed the inputs were drawn from, the key in references/
    command: str
    expr: str
    v: str = "0"
    drift: float = 0.0
    cos1: float = 0.0
    cos2: float = 0.0

    def config_text(self):
        return CONFIG.format(expr=self.expr, v=self.v)

    def hamiltonian(self, q, p):
        s = self.drift * np.sin(2 * np.pi * q)
        return 0.5 * p * p + s * p + self._potential(q)

    def _potential(self, q):
        return self.cos1 * np.cos(2 * np.pi * q) + self.cos2 * np.cos(4 * np.pi * q)

    def alpha_and_aubry(self):
        """Analytic critical value and Aubry point set (one point per maximum)."""
        q = np.arange(65536) / 65536
        U = self._potential(q) - 0.5 * (self.drift * np.sin(2 * np.pi * q)) ** 2
        alpha = float(U.max())
        tops = q[U >= alpha - 1e-12]
        return alpha, np.column_stack([tops, -self.drift * np.sin(2 * np.pi * tops)])


def _signed_sum(terms):
    text = ""
    for coef, body in terms:
        sign = "-" if coef < 0 else "+"
        text += f" {sign} {abs(coef):.6f}*{body}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _whorl_draw(seed):
    return 0 if seed == 0 else 1 + (seed - 1) % WHORL_DRAWS


def _whorl_potential(draw):
    """Criterion 1's random potential as expression text (draw 0: v = 0)."""
    if draw == 0:
        return "0"
    rng = np.random.default_rng(draw)
    q = np.arange(512) / 512
    while True:
        terms, slope = [], 0.0
        for k in (1, 2, 3):
            a, b = rng.uniform(-0.05, 0.05, 2) / k
            terms += [(a, f"cos({2 * k}*pi*q)"), (b, f"sin({2 * k}*pi*q)")]
            w = 2 * np.pi * k
            slope = slope + w * (b * np.cos(w * q) - a * np.sin(w * q))
        if SLOPE_BAND[0] <= np.max(np.abs(slope)) <= SLOPE_BAND[1]:
            return _signed_sum(terms)


def _second_harmonic(seed):
    if seed == 0:
        return 0.0
    return round(float(np.random.default_rng(seed).uniform(0.2, 0.3)), 6)


def _weakkam(workload, seed, drift, cos1, base_expr):
    c = _second_harmonic(seed)
    expr = base_expr if c == 0 else f"{base_expr} + {c:.6f}*cos(4*pi*q)"
    return Instance(workload, seed, seed, "weakkam", expr, drift=drift, cos1=cos1,
                    cos2=c)


WORKLOADS = {
    # the paper's headline computation; the only one to run `selector`,
    # `persistence`, `front` and `lagrangian`
    "whorl-selector": lambda seed: Instance(
        "whorl-selector", seed, _whorl_draw(seed), "selector", "p^2/2 + cos(2*pi*q)",
        v=_whorl_potential(_whorl_draw(seed))),
    # weak-KAM headline: leapfrog in many narrow calls plus trimming
    "weakkam-pendulum": lambda seed: _weakkam(
        "weakkam-pendulum", seed, 0.0, 1.0, "p^2/2 + cos(2*pi*q)"),
    # the only workload on the implicit-midpoint integrator and the
    # Legendre table: a leapfrog-only change must leave it unchanged
    "weakkam-nonmech": lambda seed: _weakkam(
        "weakkam-nonmech", seed, 0.3, 0.5,
        "p^2/2 + 0.3*sin(2*pi*q)*p + 0.5*cos(2*pi*q)"),
}


def instance(workload, seed):
    return WORKLOADS[workload](seed)
