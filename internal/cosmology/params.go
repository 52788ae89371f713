// Package cosmology defines the cosmological model parameters and the
// homogeneous (background) evolution that the linear perturbation equations
// are solved on top of: the Friedmann equation including photons, massless
// and massive neutrinos, baryons, cold dark matter and a cosmological
// constant, and the conformal-time <-> scale-factor mapping.
//
// Conventions (Ma & Bertschinger 1995): c = 1, lengths in Mpc, conformal
// time tau in Mpc, a = 1 today. "grho" quantities are 8 pi G a^2 rho in
// Mpc^-2, so the conformal Hubble rate is aH = sqrt(grho/3).
package cosmology

import (
	"fmt"
	"math"

	"plinger/internal/constants"
)

// Params specifies a cosmological model. The zero value is not usable; use
// one of the constructors or fill all fields.
type Params struct {
	// H is the Hubble constant in units of 100 km/s/Mpc (little h).
	H float64
	// OmegaC is the cold-dark-matter density parameter today.
	OmegaC float64
	// OmegaB is the baryon density parameter today.
	OmegaB float64
	// OmegaLambda is the cosmological-constant density parameter.
	OmegaLambda float64
	// TCMB is the CMB temperature today in kelvin.
	TCMB float64
	// YHe is the primordial helium mass fraction.
	YHe float64
	// NNuMassless is the effective number of massless two-component
	// neutrino species.
	NNuMassless float64
	// NNuMassive is the number of degenerate massive neutrino species
	// (0 or more); each has mass MNuEV.
	NNuMassive int
	// MNuEV is the massive-neutrino mass in eV.
	MNuEV float64

	// SpectralIndex is the primordial spectral index n (n=1 is
	// scale-invariant Harrison-Zel'dovich, the paper's "standard CDM").
	SpectralIndex float64

	// Flatten asks for NewFlattened instead of New: any curvature the
	// other fields leave is absorbed into OmegaC (required for massive
	// neutrinos, whose density depends on the momentum integrals). Neither
	// constructor reads it; core.Build chooses between them by it.
	Flatten bool
}

// SCDM returns the standard Cold Dark Matter model used for the paper's
// Figure 2 and Figure 3: Omega = 1, h = 0.5, Omega_b = 0.05, three massless
// neutrino species, scale-invariant initial conditions, COBE-normalized.
// OmegaC is chosen so the model is exactly flat including radiation.
func SCDM() Params {
	p := Params{
		H:             0.5,
		OmegaB:        0.05,
		OmegaLambda:   0.0,
		TCMB:          constants.TCMBDefault,
		YHe:           constants.YHeDefault,
		NNuMassless:   3.0,
		NNuMassive:    0,
		MNuEV:         0.0,
		SpectralIndex: 1.0,
	}
	p.OmegaC = 1.0 - p.OmegaB - p.OmegaGamma() - p.OmegaNuMassless()
	return p
}

// MDM returns a mixed dark matter variant (one massive neutrino species),
// exercising the massive-neutrino phase-space integration of Section 2.
// OmegaC is left at SCDM's value and Flatten is set, so NewFlattened,
// which has the massive species' density from its momentum integrals,
// adjusts OmegaC to close the model.
func MDM(mnuEV float64) Params {
	p := SCDM()
	p.NNuMassless = 2.0
	p.NNuMassive = 1
	p.MNuEV = mnuEV
	p.Flatten = true
	return p
}

// OmegaGamma returns the photon density parameter derived from TCMB and H.
func (p Params) OmegaGamma() float64 {
	return constants.RadiationDensity(p.TCMB) / (p.H * p.H)
}

// OmegaNuMassless returns the massless-neutrino density parameter.
func (p Params) OmegaNuMassless() float64 {
	return p.NNuMassless * constants.NuPerGamma * p.OmegaGamma()
}

// Validate reports structural problems with the parameter set. A NaN fails
// every range comparison below, so non-finite values are rejected first.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"H", p.H}, {"OmegaC", p.OmegaC}, {"OmegaB", p.OmegaB},
		{"OmegaLambda", p.OmegaLambda}, {"TCMB", p.TCMB}, {"YHe", p.YHe},
		{"NNuMassless", p.NNuMassless}, {"MNuEV", p.MNuEV},
		{"SpectralIndex", p.SpectralIndex},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cosmology: %s = %g must be finite", f.name, f.v)
		}
	}
	switch {
	case p.H <= 0 || p.H > 2:
		return fmt.Errorf("cosmology: h = %g out of range (0, 2]", p.H)
	case p.OmegaB <= 0:
		return fmt.Errorf("cosmology: Omega_b = %g must be positive", p.OmegaB)
	case p.OmegaC < 0:
		return fmt.Errorf("cosmology: Omega_c = %g must be non-negative", p.OmegaC)
	case p.TCMB <= 0:
		return fmt.Errorf("cosmology: TCMB = %g must be positive", p.TCMB)
	case p.YHe < 0 || p.YHe > 0.5:
		return fmt.Errorf("cosmology: YHe = %g out of range [0, 0.5]", p.YHe)
	case p.NNuMassless < 0:
		return fmt.Errorf("cosmology: N_nu = %g must be non-negative", p.NNuMassless)
	case p.NNuMassive < 0:
		return fmt.Errorf("cosmology: N_nu_massive = %d must be non-negative", p.NNuMassive)
	case p.NNuMassive > 0 && p.MNuEV <= 0:
		return fmt.Errorf("cosmology: massive neutrinos require m_nu > 0, got %g", p.MNuEV)
	}
	return nil
}
