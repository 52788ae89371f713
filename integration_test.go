package plinger

// Integration tests that exercise the repository the way a user would:
// building and running the actual command-line binaries, including a
// genuine multi-OS-process PLINGER run over the TCP transport (the paper's
// cluster deployment mode: the master listens and each plingerw worker
// dials it, as PVM workers join their master's virtual machine).

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTool compiles one of the cmd/ binaries into a temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestMultiProcessTCPRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildTool(t, "plinger")
	workerBin := buildTool(t, "plingerw")
	addr := freePort(t)
	dir := t.TempDir()
	unit1 := filepath.Join(dir, "unit1.txt")
	unit2 := filepath.Join(dir, "unit2.dat")

	master := exec.Command(bin, "-transport", "tcp", "-addr", addr, "-np", "2",
		"-nk", "6", "-kmin", "0.005", "-kmax", "0.05", "-lmax", "12",
		"-unit1", unit1, "-unit2", unit2)
	masterOut := &strings.Builder{}
	master.Stdout = masterOut
	master.Stderr = masterOut
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}

	// Start two workers; each redials until the master listens.
	var workers []*exec.Cmd
	for w := 0; w < 2; w++ {
		wk := exec.Command(workerBin, "-quiet", "-master", addr)
		wkOut := &strings.Builder{}
		wk.Stdout = wkOut
		wk.Stderr = wkOut
		if err := wk.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, wk)
	}

	done := make(chan error, 1)
	go func() { done <- master.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("master failed: %v\n%s", err, masterOut.String())
		}
	case <-time.After(180 * time.Second):
		master.Process.Kill()
		t.Fatalf("master timed out\n%s", masterOut.String())
	}
	// The master drains its workers at the end: both exit cleanly.
	for i, wk := range workers {
		stuck := time.AfterFunc(30*time.Second, func() { wk.Process.Kill() })
		err := wk.Wait()
		stuck.Stop()
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if !strings.Contains(masterOut.String(), "modes: 6") {
		t.Fatalf("master output missing results:\n%s", masterOut.String())
	}
	// The unit_1 file must hold one 20-field line per mode, unit_2 six
	// binary records.
	ascii, err := os.ReadFile(unit1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(ascii)), "\n")
	if len(lines) != 6 {
		t.Fatalf("unit1 has %d lines, want 6", len(lines))
	}
	for _, ln := range lines {
		if len(strings.Fields(ln)) != 20 {
			t.Fatalf("unit1 record: %q", ln)
		}
	}
	bin2, err := os.ReadFile(unit2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin2) == 0 {
		t.Fatal("unit2 empty")
	}
}

func TestLingerCLIProducesTransferTable(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildTool(t, "linger")
	dir := t.TempDir()
	out := filepath.Join(dir, "linger.out")
	cmd := exec.Command(bin, "-nk", "8", "-kmin", "0.001", "-kmax", "0.1", "-out", out)
	cmd.Dir = dir
	txt, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, txt)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 8 rows.
	if len(lines) != 9 {
		t.Fatalf("output lines %d, want 9:\n%s", len(lines), data)
	}
	var k, tk, pk float64
	if _, err := fmt.Sscanf(lines[1], "%g %g %g", &k, &tk, &pk); err != nil {
		t.Fatalf("parse %q: %v", lines[1], err)
	}
	if tk != 1.0 {
		t.Fatalf("first transfer value %g, want 1 (normalization)", tk)
	}
}

func TestPsiMovieCLIWritesFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildTool(t, "psimovie")
	dir := t.TempDir()
	cmd := exec.Command(bin, "-n", "32", "-frames", "4", "-dir", dir)
	txt, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, txt)
	}
	for f := 0; f < 4; f++ {
		name := filepath.Join(dir, fmt.Sprintf("psi_%03d.pgm", f))
		st, err := os.Stat(name)
		if err != nil {
			t.Fatalf("frame %d missing: %v", f, err)
		}
		if st.Size() < 32*32 {
			t.Fatalf("frame %d truncated", f)
		}
	}
}
