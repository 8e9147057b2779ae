import math

import pytest

import ioncrystal as ic

OMEGA_RF = 2.0 * math.pi * 10.66e6


@pytest.fixture(scope="session")
def ca():
    return ic.IonSpecies(1, 40.0)


@pytest.fixture(scope="session")
def ca2():
    return ic.IonSpecies(2, 40.0)


@pytest.fixture(scope="session")
def ref_freqs():
    return ic.SpeciesFrequencies.from_khz(480.0, 630.0, 119.0)


@pytest.fixture(scope="session")
def trap(ca, ref_freqs):
    return ic.calibrate_from_frequencies(ca, ref_freqs, OMEGA_RF)


@pytest.fixture(scope="session")
def family(ca, ref_freqs):
    return ic.AnisotropyFamily.from_calibration(ca, ref_freqs, OMEGA_RF)


@pytest.fixture(scope="session")
def mixed_config_factory():
    """Random mixed-species configurations in a +/-25 um box, separations >= 2 um."""
    import numpy as np

    species = (ic.IonSpecies(1, 40.0), ic.IonSpecies(2, 40.0), ic.IonSpecies(1, 24.0))

    def make(rng, n=5):
        ions = tuple(species[i % 3] for i in range(n))
        while True:
            pos = rng.uniform(-25e-6, 25e-6, size=(n, 3))
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() >= 2e-6:
                return ic.CrystalConfiguration(ions, pos)

    return make


@pytest.fixture(scope="session")
def linear_chain():
    """Exactly linear chain built from the one-dimensional axial solve."""
    import numpy as np

    def make(trap, ions):
        z = ic.axial_equilibrium(trap, ions)
        pos = np.zeros((len(ions), 3))
        pos[:, 2] = z
        return ic.CrystalConfiguration(tuple(ions), pos)

    return make


@pytest.fixture(scope="session")
def read_pgm16():
    """Reader for write_pgm's files: the samples as floats, and the maxval.

    write_pgm writes the fixed header "P5\\n<width> <height>\\n65535\\n"
    and then big-endian 16-bit samples.
    """
    import numpy as np

    def read(path):
        magic, size, maxval, data = path.read_bytes().split(b"\n", 3)
        assert magic == b"P5"
        width, height = (int(f) for f in size.split())
        samples = np.frombuffer(data, dtype=">u2").reshape(height, width)
        return samples.astype(float), int(maxval)

    return read
