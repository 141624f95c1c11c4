// Command eugenevet runs the repo's custom analyzers (internal/analysis)
// as a go vet tool:
//
//	go vet -vettool=$(which eugenevet) -strict ./...
//
// It speaks the cmd/go unitchecker protocol: -V=full for build caching,
// -flags to enumerate its flags, and a single JSON .cfg argument
// describing one compilation unit. Diagnostics go to stderr; the exit
// status is 1 when any diagnostic is reported.
//
// Use -list to print the analyzers and their one-line docs. The whole
// suite always runs; the one way to silence a finding is a
// //lint:ignore directive, which -strict audits.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"eugene/internal/analysis"
	"eugene/internal/analysis/load"
	"eugene/internal/analysis/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eugenevet: ")

	analyzers := suite.All()
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	list := flag.Bool("list", false, "print the analyzers in the suite and exit")
	strict := flag.Bool("strict", false, "audit //lint:ignore directives: fail on stale suppressions and unknown analyzer names")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (used by go vet)")
	flag.Var(versionFlag{}, "V", "print version and exit (used by go vet for build caching)")
	// Accepted for go vet compatibility; eugenevet always prints plain text.
	flag.Bool("json", false, "no effect (accepted for go vet compatibility)")
	flag.Int("c", -1, "no effect (accepted for go vet compatibility)")
	flag.Parse()

	if *printflags {
		printFlags()
		os.Exit(0)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, firstLine(a.Doc))
		}
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatal("run me through go vet: go vet -vettool=$(which eugenevet) -strict ./...")
	}
	runUnit(args[0], analyzers, *strict)
}

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}

// reportAll runs the analyzers over one package and prints surviving
// diagnostics; it reports whether any were printed. With strict, the
// package's //lint:ignore directives are audited afterwards: a
// directive that suppressed nothing, or that names an analyzer the
// suite does not have, is itself a finding.
func reportAll(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer, strict bool) bool {
	sup := analysis.NewSuppressor(fset, files)
	found := false
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			if sup.Suppressed(fset, a.Name, d.Pos) {
				continue
			}
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, a.Name)
			found = true
		}
	}
	if strict {
		sup.Audit(analyzers, func(d analysis.Diagnostic) {
			fmt.Fprintf(os.Stderr, "%s: %s [strict]\n", fset.Position(d.Pos), d.Message)
			found = true
		})
	}
	return found
}

// unitConfig mirrors the fields of cmd/go's vet config file
// (x/tools unitchecker.Config) that eugenevet consumes.
type unitConfig struct {
	ID                        string
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit performs the analysis described by a go vet .cfg file.
func runUnit(configFile string, analyzers []*analysis.Analyzer, strict bool) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", configFile, err)
	}
	// eugenevet has no cross-package facts; the vetx file exists only to
	// satisfy the protocol.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log.Fatal(err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		os.Exit(0)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				os.Exit(0)
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
	info := load.NewInfo()
	tc := &types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			os.Exit(0)
		}
		log.Fatal(err)
	}

	found := reportAll(fset, files, pkg, info, analyzers, strict)
	writeVetx()
	if found {
		os.Exit(1)
	}
	os.Exit(0)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printFlags implements the `-flags` half of the go vet tool protocol:
// a JSON description of every flag, so cmd/go can validate the flags
// it forwards.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		isBool := ok && b.IsBoolFlag()
		flags = append(flags, jsonFlag{f.Name, isBool, f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		log.Fatal(err)
	}
}

// versionFlag implements the `-V=full` half of the go vet tool
// protocol: print a content-addressed version line so cmd/go can cache
// vet results against the tool binary.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	progname, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	//lint:ignore uncheckederr read-only file, nothing to recover
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
