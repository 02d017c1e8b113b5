// Command terids-bench regenerates the paper's evaluation tables and
// figures over the synthetic dataset profiles (-list prints the experiment
// index; see README.md, "Benchmarks").
//
// Usage:
//
//	terids-bench -experiment fig5b
//	terids-bench -experiment all -datasets Citations,Anime -scale 0.5
//	terids-bench -list
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"terids/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("terids-bench: ")

	var (
		id       = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		list     = flag.Bool("list", false, "list available experiment ids and exit")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all five)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		w        = flag.Int("w", 200, "sliding window size")
		max      = flag.Int("max", 0, "max arrivals per run (0 = all)")
		seed     = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.IDs() {
			fmt.Println(e)
		}
		return
	}

	p := experiments.DefaultParams()
	p.Scale = *scale
	p.W = *w
	p.MaxStream = *max
	p.Seed = *seed
	if *datasets != "" {
		p.Datasets = strings.Split(*datasets, ",")
	}

	ids := []string{*id}
	if *id == "all" {
		ids = experiments.IDs()
	}
	for _, e := range ids {
		rep, err := experiments.Run(e, p)
		if err != nil {
			log.Fatalf("%s: %v", e, err)
		}
		fmt.Println(rep)
	}
}
