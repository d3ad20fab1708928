// Command powermodel runs the paper's §VI power-regression experiment:
// train the six-feature model on the HPCC sweep, print Tables VII and
// VIII with residual diagnostics, and verify against the NPB.
//
// Usage:
//
//	powermodel [-server Xeon-4870] [-classes BC] [-augment ep,sp] [-seed n]
//
// -augment implements the paper's proposed improvement of adding NPB
// programs to the training set (class A, disjoint from verification).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"powerbench/internal/core"
	"powerbench/internal/npb"
	"powerbench/internal/server"
)

func main() {
	serverName := flag.String("server", "Xeon-4870", "server to model")
	classes := flag.String("classes", "BC", "verification classes, e.g. B, C or BC")
	augment := flag.String("augment", "", "comma-separated NPB programs to add to training (e.g. ep,sp)")
	seed := flag.Float64("seed", 3, "simulation seed")
	flag.Parse()

	spec, err := server.ByName(*serverName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var progs []npb.Program
	if *augment != "" {
		for _, name := range strings.Split(*augment, ",") {
			progs = append(progs, npb.Program(strings.TrimSpace(name)))
		}
	}
	tr, err := core.TrainPowerModelCtx(context.Background(), spec, *seed, progs, core.EvalOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "training:", err)
		os.Exit(1)
	}

	fmt.Println(core.Table7(tr))
	fmt.Println()
	fmt.Println(core.Table8(tr))
	fmt.Println()

	for _, c := range *classes {
		class, err := npb.ParseClass(string(c))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		v, err := core.VerifyPowerModel(spec, tr, class, *seed+7)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verification:", err)
			os.Exit(1)
		}
		fmt.Printf("NPB class %s: %d runs, verification R² = %.4f\n", class, len(v.Points), v.R2)
	}
}
