//! Regenerates Table 2: FlexTM hardware area overheads at 65 nm.

fn main() {
    println!("== Table 2: Area Estimation (CACTI-lite, 2048-bit 4-banked signatures) ==");
    println!("{}", flextm_area::render_table2(2048));
    println!("Paper reference values:");
    println!("  Signature (mm2):      0.033 / 0.066 / 0.26");
    println!("  CSTs (registers):     3 / 6 / 24");
    println!("  OT controller (mm2):  0.16 / 0.24 / 0.035");
    println!("  Extra state bits:     2 / 3 / 5");
    println!("  % Core increase:      0.6% / 0.59% / 2.6%");
    println!("  % L1 Dcache increase: 0.35% / 0.29% / 3.9%");
}
