//! Every pre-processing repair, pinned bit for bit.
//!
//! Each case repairs one fixed draw with one of the seven pre-processing
//! variants and hashes the result: the row count, `Y`, `S` and every
//! column's bits, FNV-1a. Speeding a repair up must leave these hashes
//! alone; a changed hash means a changed repaired dataset.

use fairlens_core::all_approaches;
use fairlens_core::pipeline::ApproachKind;
use fairlens_frame::{Column, Dataset};
use fairlens_synth::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The approaches in [`all_approaches`] order, which the hash rows follow.
const PRE: [&str; 7] = [
    "KamCal^DP",
    "Feld^DP(1.0)",
    "Feld^DP(0.6)",
    "Calmon^DP",
    "ZhaWu^PSF",
    "Salimi^JF(MaxSAT)",
    "Salimi^JF(MatFac)",
];

/// `(dataset, seed, one hash per approach in PRE order)`.
#[rustfmt::skip]
const GOLDEN: [(DatasetKind, u64, [u64; 7]); 16] = [
    (DatasetKind::Credit, 1, [
        2_221_860_870_659_487_888,
        9_936_077_985_403_583_207,
        2_850_636_671_421_969_663,
        11_336_700_089_563_271_702,
        17_843_190_376_460_346_003,
        9_006_021_311_545_347_930,
        10_664_509_935_734_571_874,
    ]),
    (DatasetKind::Credit, 2, [
        10_321_858_906_747_692_691,
        3_841_797_758_091_452_475,
        3_426_039_187_057_299_279,
        13_473_622_351_302_210_633,
        9_768_033_017_414_583_849,
        11_368_440_571_258_010_361,
        8_438_644_927_139_033_040,
    ]),
    (DatasetKind::Credit, 3, [
        9_444_643_138_707_625_965,
        16_052_152_949_009_600_570,
        8_517_640_543_669_297_922,
        16_320_987_461_637_396_245,
        12_100_102_378_696_756_981,
        2_800_996_587_611_859_100,
        17_476_502_415_904_778_781,
    ]),
    (DatasetKind::Credit, 4, [
        13_653_123_891_380_380_489,
        11_366_695_658_907_548_004,
        18_364_406_571_965_654_518,
        8_501_641_717_951_658_274,
        3_751_471_076_849_617_327,
        91_320_104_470_796_990,
        9_557_137_799_817_263_815,
    ]),
    (DatasetKind::Compas, 1, [
        269_940_551_782_405_384,
        3_179_704_805_135_232_058,
        8_329_666_130_703_985_673,
        12_232_330_353_753_146_237,
        6_416_452_541_574_980_500,
        7_468_543_119_262_385_730,
        10_902_541_118_940_382_353,
    ]),
    (DatasetKind::Compas, 2, [
        16_209_400_133_410_966_957,
        6_470_291_593_217_506_500,
        10_416_293_966_943_944_205,
        3_591_846_923_163_399_376,
        1_882_916_199_162_912_901,
        1_882_916_199_162_912_901,
        1_882_916_199_162_912_901,
    ]),
    (DatasetKind::Compas, 3, [
        8_698_752_591_156_182_336,
        2_291_457_667_616_186_026,
        11_178_794_873_212_870_526,
        3_369_239_841_715_273_519,
        14_490_266_677_104_382_614,
        15_654_820_232_018_621_271,
        3_050_005_402_033_228_965,
    ]),
    (DatasetKind::Compas, 4, [
        10_275_783_121_341_152_065,
        16_367_240_329_759_450_328,
        2_407_565_761_536_565_749,
        2_846_552_286_728_951_694,
        15_902_321_683_091_957_891,
        726_884_885_607_069_739,
        11_015_843_617_084_539_623,
    ]),
    (DatasetKind::Adult, 1, [
        14_682_307_946_907_087_006,
        10_314_540_718_897_900_293,
        16_625_839_962_739_943_312,
        14_219_731_214_291_066_737,
        10_141_208_648_158_272_480,
        3_013_388_215_026_155_900,
        17_945_445_242_393_596_845,
    ]),
    (DatasetKind::Adult, 2, [
        16_624_226_186_747_485_487,
        8_334_303_390_521_839_674,
        14_949_043_369_095_894_560,
        9_123_093_407_985_122_421,
        7_930_142_074_674_383_893,
        8_059_120_083_002_052_242,
        8_164_921_433_530_737_216,
    ]),
    (DatasetKind::Adult, 3, [
        1_074_944_615_192_811_118,
        14_059_758_442_321_737_187,
        2_428_716_170_783_762_222,
        2_108_956_216_882_691_601,
        13_599_255_387_297_703_480,
        17_862_194_849_378_002_508,
        13_641_980_827_487_339_228,
    ]),
    (DatasetKind::Adult, 4, [
        3_967_156_639_858_668_271,
        13_443_373_409_851_446_097,
        8_669_925_595_308_419_427,
        9_300_016_728_315_430_719,
        13_607_508_659_488_615_807,
        17_256_727_643_196_325_245,
        15_785_665_782_090_100_150,
    ]),
    (DatasetKind::German, 1, [
        371_732_536_849_483_232,
        15_119_024_682_627_331_097,
        6_152_836_259_446_911_271,
        11_225_545_818_675_456_989,
        11_225_545_818_675_456_989,
        11_225_545_818_675_456_989,
        11_225_545_818_675_456_989,
    ]),
    (DatasetKind::German, 2, [
        16_770_742_396_472_027_005,
        3_726_088_871_010_826_296,
        15_634_357_721_719_489_770,
        662_547_057_027_191_710,
        16_164_314_740_702_264_043,
        16_164_314_740_702_264_043,
        16_164_314_740_702_264_043,
    ]),
    (DatasetKind::German, 3, [
        1_979_329_165_661_264_912,
        5_621_616_844_557_076_640,
        5_046_948_147_800_780_637,
        12_235_362_851_519_232_257,
        12_235_362_851_519_232_257,
        12_235_362_851_519_232_257,
        12_235_362_851_519_232_257,
    ]),
    (DatasetKind::German, 4, [
        3_412_872_283_516_984_462,
        18_270_512_030_295_403_949,
        14_657_747_880_767_779_729,
        1_945_399_613_578_576_425,
        1_022_074_262_321_044_084,
        1_022_074_262_321_044_084,
        1_022_074_262_321_044_084,
    ]),
];

/// The draw a case repairs: Credit at the `pre-credit` shape (projected to
/// its first 14 attributes), the other three at full width.
fn draw(kind: DatasetKind, seed: u64) -> Dataset {
    match kind {
        DatasetKind::Credit => {
            let idx: Vec<usize> = (0..14).collect();
            kind.generate(3_000, seed).select_attrs(&idx)
        }
        DatasetKind::German => kind.generate(1_000, seed),
        _ => kind.generate(1_500, seed),
    }
}

fn fnv1a(d: &Dataset) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(d.n_rows() as u64);
    d.labels().iter().for_each(|&y| feed(u64::from(y)));
    d.sensitive().iter().for_each(|&s| feed(u64::from(s)));
    for column in d.columns() {
        match column {
            Column::Numeric(values) => values.iter().for_each(|v| feed(v.to_bits())),
            Column::Categorical { codes, .. } => codes.iter().for_each(|&c| feed(u64::from(c))),
        }
    }
    hash
}

fn repair_hashes(kind: DatasetKind, seed: u64) -> [u64; 7] {
    let data = draw(kind, seed);
    let approaches = all_approaches(kind.salimi_inadmissible());
    let mut out = [0u64; 7];
    for (slot, name) in out.iter_mut().zip(PRE) {
        let approach = approaches.iter().find(|a| a.name == name).unwrap();
        let ApproachKind::Pre(pre) = &approach.kind else { panic!("{name} is not pre") };
        let repaired = pre
            .repair(&data, &mut StdRng::seed_from_u64(seed))
            .unwrap_or_else(|e| panic!("{name} on {}/{seed}: {e}", kind.name()));
        *slot = fnv1a(&repaired);
    }
    out
}

#[test]
fn repairs_match_the_pinned_hashes() {
    for (kind, seed, want) in GOLDEN {
        let got = repair_hashes(kind, seed);
        for ((name, g), w) in PRE.iter().zip(got).zip(want) {
            assert_eq!(g, w, "{name} on {}/{seed}: repaired dataset changed", kind.name());
        }
    }
}
