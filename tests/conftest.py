import pytest

from hurwitzlab import Harmonic, TrigSupport, random_body, validate_convex


@pytest.fixture(scope="session")
def circle_body():
    return validate_convex(TrigSupport(1.0))


@pytest.fixture(scope="session")
def ast_body():
    # unit-mean body with a single n=2 harmonic of amplitude 0.2
    return validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.2),)))


@pytest.fixture(scope="session")
def delt_body():
    return validate_convex(TrigSupport(1.0, (Harmonic(3, 0.1, 0.0),)))


@pytest.fixture(scope="session")
def cw35_body():
    return validate_convex(TrigSupport(1.0, (Harmonic(3, 0.05, 0.0), Harmonic(5, 0.0, 0.01))))


@pytest.fixture(scope="session")
def mix_body():
    return validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.1), Harmonic(5, 0.02, 0.0))))


@pytest.fixture(scope="session")
def hd17_body():
    # 17 harmonics of size 0.3/n^3 with scrambled signs: the convexity
    # certificate fails (slack -0.29), the dense-grid bound decides (0.592,
    # below rho_min 0.595); coefficients use division only, so they are exact
    hs = tuple(
        Harmonic(n, 0.3 * ((7 * n) % 5 - 2) / n**3, 0.3 * ((3 * n) % 5 - 2) / n**3) for n in range(1, 18)
    )
    return validate_convex(TrigSupport(1.0, hs))


def make_sweep(count: int, seed: int = 1):
    """Deterministic random bodies: degrees cycling 2..8, odd indices constant width."""
    out = []
    for i in range(count):
        out.append(random_body(seed, degree=2 + (i % 7), constant_width=(i % 2 == 1), index=i))
    return out


@pytest.fixture(scope="session")
def sweep_bodies():
    return make_sweep(200, seed=1)
