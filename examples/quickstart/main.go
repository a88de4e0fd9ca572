// Quickstart: load one benchmark page under both pipelines on a simulated
// 3G smartphone and compare loading time and energy — the paper's headline
// experiment in a dozen lines of API.
package main

import (
	"fmt"
	"log"
	"time"

	"eabrowse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	page, err := eabrowse.ESPNSports()
	if err != nil {
		return err
	}
	fmt.Printf("loading %s (%d resources, %d KB) with 20 s of reading...\n\n",
		page.Name, page.ResourceCount(), page.TotalBytes()/1024)

	var origTotal float64
	for _, mode := range []eabrowse.Mode{eabrowse.ModeOriginal, eabrowse.ModeEnergyAware} {
		phone, err := eabrowse.New(mode)
		if err != nil {
			return err
		}
		res, err := phone.LoadPage(page)
		if err != nil {
			return err
		}
		phone.Read(20 * time.Second)
		total := phone.EnergyJ()
		fmt.Printf("%-13s transmission %5.1fs  loaded %5.1fs  radio now %-5v  energy %5.1f J\n",
			mode, res.TransmissionTime.Seconds(), res.FinalDisplayAt.Seconds(),
			phone.RadioState(), total)
		if mode == eabrowse.ModeOriginal {
			origTotal = total
		} else {
			// The paper's headline figure for this saving is the claims
			// table's fig10.headline row (internal/experiments/claims.go).
			fmt.Printf("\nenergy saving: %.1f%%\n", (origTotal-total)/origTotal*100)
		}
	}
	return nil
}
