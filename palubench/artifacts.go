package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// artifacts maps an artifact file name to its content.
type artifacts map[string][]byte

// readArtifacts loads every regular file of dir except timings.csv,
// whose seconds differ from run to run by design.
func readArtifacts(dir string) (artifacts, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	a := artifacts{}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "timings.csv" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		a[e.Name()] = data
	}
	return a, nil
}

func (a artifacts) names() []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// digest hashes every artifact name and content in name order.
func (a artifacts) digest() string {
	h := sha256.New()
	for _, n := range a.names() {
		fmt.Fprintf(h, "%s %d\n", n, len(a[n]))
		h.Write(a[n])
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// compare checks got against want artifact by artifact: each wanted
// artifact is one checked operation, failed when it is missing or
// differs, and each unexpected artifact is one failed operation.
func (b *bench) compare(label string, want, got artifacts) {
	for _, n := range want.names() {
		g, ok := got[n]
		b.check(ok && string(g) == string(want[n]), "%s: artifact %s missing or different", label, n)
	}
	for _, n := range got.names() {
		if _, ok := want[n]; !ok {
			b.check(false, "%s: unexpected artifact %s", label, n)
		}
	}
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
