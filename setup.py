"""Setup script (legacy path: the sandbox's setuptools lacks bdist_wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Adaptive Model Scheduling: comprehensive and efficient data "
        "labeling (ICDE 2020 reproduction)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
