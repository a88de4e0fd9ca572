package eabrowse_test

import (
	"fmt"
	"time"

	"eabrowse"
)

// ExamplePhone loads the m.cnn.com stand-in through the energy-aware
// pipeline and shows where the radio ends up after the user reads.
func ExamplePhone() {
	page, err := eabrowse.MCNNPage()
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	phone, err := eabrowse.New(eabrowse.ModeEnergyAware)
	if err != nil {
		fmt.Println("phone:", err)
		return
	}
	if _, err := phone.LoadPage(page); err != nil {
		fmt.Println("load:", err)
		return
	}
	phone.Read(10 * time.Second)
	fmt.Println("radio after reading:", phone.RadioState())
	// Output:
	// radio after reading: IDLE
}

// ExampleShouldSwitchToIdle shows Algorithm 2's decision rule in both modes.
func ExampleShouldSwitchToIdle() {
	params := eabrowse.DefaultPolicyParams() // delay-driven, Td = 20 s
	fmt.Println("12s read, delay-driven:", eabrowse.ShouldSwitchToIdle(12*time.Second, params))
	params.Mode = eabrowse.PolicyModePower // Tp = 9 s also triggers
	fmt.Println("12s read, power-driven:", eabrowse.ShouldSwitchToIdle(12*time.Second, params))
	// Output:
	// 12s read, delay-driven: false
	// 12s read, power-driven: true
}

// ExampleGeneratePage builds a small deterministic page.
func ExampleGeneratePage() {
	page, err := eabrowse.GeneratePage(eabrowse.PageSpec{
		Name: "doc.example.com", Seed: 42,
		TextKB: 4, Sections: 2,
		Images: 3, ImageKBMin: 2, ImageKBMax: 4,
		Stylesheets: 1, CSSKB: 3, CSSRules: 20,
	})
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	fmt.Println("resources:", page.ResourceCount())
	// Output:
	// resources: 5
}
