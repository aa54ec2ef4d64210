package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env stamps a recording with what its numbers depend on besides the
// code: the machine's processors, the Go runtime, and which sources
// were built. Source is a digest of every Go source and module file of
// the checkout, so it identifies the code even where the checkout is
// not a git repository; Commit is filled in when it is one.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
	Source     string `json:"source"`
}

func captureEnv(root string) env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
		if out, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	e.Source = sourceDigest(root)
	return e
}

// sourceDigest hashes the paths and contents of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output
// included).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// comparable reports whether two recordings' numbers were taken on the
// same kind of machine and runtime.
func (e env) comparable(o env) bool {
	return e.NumCPU == o.NumCPU && e.GOMAXPROCS == o.GOMAXPROCS && e.GoVersion == o.GoVersion
}
