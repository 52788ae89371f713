//go:build !amd64

package core

func streamDamped(d, f, rA, rB []float64, k, kd float64) { streamDampedGo(d, f, rA, rB, k, kd) }

func stream(d, f, rA, rB []float64, k float64) { streamGo(d, f, rA, rB, k) }
